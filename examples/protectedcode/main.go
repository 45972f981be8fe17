// Protected code: the PCL flow of Section 2.3.1 — plain vs lease-gated.
//
// The vendor ships an application whose decryption kernel is *encrypted*
// in the binary. At runtime the enclave quotes itself, the vendor's key
// server verifies the quote and releases the decryption key, and the code
// is decrypted inside the enclave. The example then contrasts:
//
//   - plain PCL: once decrypted, the code runs forever (the paper's
//     "sad part" — one-shot protection);
//
//   - SecureLease-gated PCL: the lease logic is embedded in the secure
//     code, so every execution demands a token and the license's count is
//     enforced exactly.
//
//     go run ./examples/protectedcode
package main

import (
	"fmt"
	"os"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/pcl"
	"repro/internal/sllocal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "protectedcode:", err)
		os.Exit(1)
	}
}

func run() error {
	// The customer's machine with SecureLease deployed: SL-Local running,
	// SL-Remote holding a 25-run license for the codec.
	sys, err := core.NewSystem(core.Config{MachineName: "customer", Local: sllocal.Config{TokenBatch: 1}})
	if err != nil {
		return err
	}
	if err := sys.RegisterLicense("lic-codec", lease.CountBased, 25); err != nil {
		return err
	}
	platform := sys.Platform()

	// The application's secure region and its SL-Manager; the vendor's
	// attestation service trusts the platform and the enclave's
	// measurement.
	app, err := sys.LaunchApp("media-app")
	if err != nil {
		return err
	}
	enclave := app.Enclave()
	service := attest.NewService()
	service.RegisterPlatform(platform)
	service.TrustMeasurement(enclave.Measurement())

	// Vendor side: provision the encrypted kernel.
	keyServer, err := pcl.NewKeyServer(service)
	if err != nil {
		return err
	}
	encFn, err := keyServer.Provision("codec.decode", []byte("proprietary codec kernel"), enclave.Measurement())
	if err != nil {
		return err
	}
	fmt.Printf("binary ships with %q encrypted (%d bytes of ciphertext)\n",
		encFn.Name, len(encFn.Ciphertext))

	// --- Plain PCL ---------------------------------------------------
	plain, err := pcl.NewLoader(enclave, platform, keyServer, nil)
	if err != nil {
		return err
	}
	if err := plain.Load(encFn, func() error { return nil }, ""); err != nil {
		return err
	}
	runs := 0
	for i := 0; i < 100_000; i++ {
		if err := plain.Execute("codec.decode"); err != nil {
			break
		}
		runs++
	}
	fmt.Printf("plain PCL: decrypted once, then ran %d times with zero further checks\n", runs)

	// --- Lease-gated PCL ---------------------------------------------
	gated, err := pcl.NewLoader(enclave, platform, keyServer, app.Manager())
	if err != nil {
		return err
	}
	if err := gated.Load(encFn, func() error { return nil }, "lic-codec"); err != nil {
		return err
	}
	runs = 0
	var denial error
	for i := 0; i < 100_000; i++ {
		if err := gated.Execute("codec.decode"); err != nil {
			denial = err
			break
		}
		runs++
	}
	fmt.Printf("lease-gated PCL: ran exactly %d times (25 licensed), then: %v\n", runs, denial)
	if runs != 25 {
		return fmt.Errorf("count enforcement broken: %d runs", runs)
	}
	fmt.Println("embedding the lease logic in the secure code turns one-shot PCL into a leasable capability")
	return nil
}
