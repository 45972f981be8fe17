// Command slobs is the fleet observability plane: it scrapes every
// node's metric/trace/event exposition — over plain HTTP or over the
// attested wire channel — merges them under the fleet rules (counters
// sum, gauges follow the rule table, histogram buckets merge so fleet
// p50/p99 are recomputed from real counts), and either prints the
// result once or serves it continuously.
//
// Serve a 3-node fleet:
//
//	slobs -addr :9300 -node shard0=http://127.0.0.1:9101 \
//	      -node shard1=http://127.0.0.1:9102 -node shard2=http://127.0.0.1:9103
//
// One-shot merged metrics, a stitched cross-node trace, the nodes' event
// rings stitched into one timeline, or per-node scrape health:
//
//	slobs -node a=http://... -node b=http://...
//	slobs -node a=http://... -node b=http://... -trace 3fa9c1...
//	slobs -node a=http://... -node b=http://... -events
//	slobs -node a=http://... -node b=http://... -nodes
//
// Scraping over the attested channel (the node's wire listener answers
// obs_pull; metrics never leave the enclave boundary outside RA-TLS):
//
//	slobs -wire shard0=127.0.0.1:7600 -ratls-secret swarm
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/ratls"
	"repro/internal/sllocal"
	"repro/internal/slremote"
)

// targetList collects repeated -node/-wire name=endpoint flags.
type targetList []string

func (l *targetList) String() string { return strings.Join(*l, ",") }

func (l *targetList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=endpoint, got %q", v)
	}
	*l = append(*l, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		cli.Fatalf("slobs: %v", err)
	}
}

func run() error {
	var httpTargets, wireTargets targetList
	flag.Var(&httpTargets, "node", "HTTP scrape target as name=http://host:port (repeatable)")
	flag.Var(&wireTargets, "wire", "attested-channel scrape target as name=host:port (repeatable)")
	var (
		addr     = flag.String("addr", "", "serve the merged fleet endpoint on this address (empty: one-shot mode)")
		interval = flag.Duration("interval", fleet.DefaultInterval, "scrape interval in serve mode")
		timeout  = flag.Duration("scrape-timeout", fleet.DefaultTimeout, "per-target scrape timeout")
		traceID  = flag.String("trace", "", "one-shot: print the stitched cross-node trace for this hex trace ID")
		events   = flag.Bool("events", false, "one-shot: print the nodes' events as one timeline")
		nodes    = flag.Bool("nodes", false, "one-shot: print per-node scrape health")
		asJSON   = flag.Bool("json", false, "one-shot: emit JSON instead of text")

		insecure        = flag.Bool("insecure", false, "speak explicit plaintext to -wire targets instead of the attested (RA-TLS) default")
		ratlsSecret     = flag.String("ratls-secret", "", "shared provisioning secret for the attested channel to -wire targets")
		ratlsSecretFile = flag.String("ratls-secret-file", "", "read the channel provisioning secret from this file")
		name            = flag.String("name", "slobs", "machine name presented on attested channels")
	)
	flag.Parse()

	targets, err := buildTargets(httpTargets, wireTargets, *insecure, *ratlsSecret, *ratlsSecretFile, *name)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("no targets: pass at least one -node name=url or -wire name=addr")
	}

	agg := fleet.New(fleet.Options{
		Targets:  targets,
		Interval: *interval,
		Timeout:  *timeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})

	if *addr != "" {
		agg.Start()
		defer agg.Stop()
		srv, err := obs.Serve(*addr, agg.Handler())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("slobs: serving fleet view of %d nodes on %s (/metrics /trace /events /nodes)\n",
			len(targets), srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		return nil
	}

	return oneShot(agg, *traceID, *events, *nodes, *asJSON)
}

// oneShot scrapes once and prints the requested view to stdout.
func oneShot(agg *fleet.Aggregator, traceID string, events, nodes, asJSON bool) error {
	emitJSON := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	switch {
	case traceID != "" || events:
		var tr *fleet.Trace
		if traceID != "" {
			tr = agg.StitchTrace(traceID)
		} else {
			tr = agg.Events()
		}
		if asJSON {
			return emitJSON(tr)
		}
		fmt.Print(tr.Render())
		return nil
	case nodes:
		if err := agg.ScrapeOnce(); err != nil {
			fmt.Fprintf(os.Stderr, "slobs: %v\n", err)
		}
		return emitJSON(agg.Nodes())
	default:
		// Merged metrics. Scrape errors are reported but don't abort:
		// a partially-scraped fleet view (with fleet_node_up=0 for the
		// missing nodes) is exactly what an operator wants during an
		// outage.
		if err := agg.ScrapeOnce(); err != nil {
			fmt.Fprintf(os.Stderr, "slobs: %v\n", err)
		}
		if asJSON {
			return obs.WriteExport(os.Stdout, agg.Merged())
		}
		return obs.WriteFamiliesPrometheus(os.Stdout, agg.Merged())
	}
}

// buildTargets resolves the -node/-wire flags into fleet targets,
// minting one attested channel config per wire target.
func buildTargets(httpTargets, wireTargets targetList, insecure bool, secret, secretFile, name string) ([]fleet.Target, error) {
	var out []fleet.Target
	for _, nv := range httpTargets {
		n, url, _ := strings.Cut(nv, "=")
		out = append(out, fleet.Target{Name: n, URL: url})
	}
	for _, nv := range wireTargets {
		n, addr, _ := strings.Cut(nv, "=")
		rc, err := ratls.FromFlags(insecure, secret, secretFile, name, nil, sllocal.EnclaveCodeIdentity, slremote.EnclaveCodeIdentity)
		if err != nil {
			return nil, err
		}
		out = append(out, fleet.Target{Name: n, Addr: addr, Channel: rc})
	}
	return out, nil
}
