package wire

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/lease"
	"repro/internal/ratls"
	"repro/internal/slremote"
)

func TestWriteMessageRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	huge := strings.Repeat("x", MaxMessageSize)
	err := WriteMessage(&buf, TypeRenew, 0, RenewRequest{SLID: huge, License: "l"}, nil)
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestWriteMessageUnmarshalablePayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeOK, 0, func() {}, nil); err == nil {
		t.Fatal("unmarshalable payload accepted")
	}
}

func TestRemoteErrFormats(t *testing.T) {
	env := Envelope{Type: TypeError, Payload: []byte(`{"message":"kaput"}`)}
	err := RemoteErr(env)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v", err)
	}
	// Unexpected type formatting.
	err = RemoteErr(Envelope{Type: "weird"})
	if !strings.Contains(err.Error(), "weird") {
		t.Fatalf("err = %v", err)
	}
}

func TestServerCloseIdempotentAndServeAfterClose(t *testing.T) {
	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(remote, nil, ratls.Insecure(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Close accepted")
	}
}

func TestConcurrentClientsOneServer(t *testing.T) {
	d := startDeployment(t)
	if err := func() error {
		c, err := Dial(d.addr, ratls.Insecure())
		if err != nil {
			return err
		}
		defer c.Close()
		return c.RegisterLicense("lic", uint8(lease.CountBased), 1_000_000)
	}(); err != nil {
		t.Fatalf("setup: %v", err)
	}

	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(d.addr, ratls.Insecure())
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				if _, err := c.LicenseInfo("lic"); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

func TestClientSurvivesSharedUseAcrossGoroutines(t *testing.T) {
	d := startDeployment(t)
	c, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterLicense("shared", uint8(lease.CountBased), 1_000_000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.LicenseInfo("shared"); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}
}

func TestMalformedPayloadsReturnErrors(t *testing.T) {
	d := startDeployment(t)
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid envelope, garbage payload for a typed request.
	if err := WriteMessage(conn, TypeRenew, 0, "not-an-object", nil); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if env.Type != TypeError {
		t.Fatalf("reply = %q", env.Type)
	}
	// Escrow with a bad key length.
	if err := WriteMessage(conn, TypeEscrow, 0, EscrowRequest{SLID: "s", Key: []byte{1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	env, err = ReadMessage(conn)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if env.Type != TypeError {
		t.Fatalf("reply = %q", env.Type)
	}
}
