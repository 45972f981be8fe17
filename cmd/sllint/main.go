// Command sllint runs the SecureLease static-analysis suite
// (internal/lint) over the repository and exits non-zero on findings. It
// is the machine check behind the conventions the codebase is written in:
// no key material in logs/metrics/unsealed wire fields, across function
// boundaries (secretflow), *Locked only under mu or on unpublished
// objects (lockdisc), mutex-guarded fields accessed with their guard held
// (guardedby), an acyclic global lock-acquisition graph (lockorder),
// WAL-before-apply in SL-Remote (walorder), spans ended on all paths
// (spanend), and well-formed unique metric names (obsnames).
//
//	sllint ./...             # analyze the whole module (CI gate)
//	sllint internal/wire     # analyze one package directory
//	sllint -json ./...       # machine-readable diagnostics
//	sllint -checks lockdisc,walorder ./...
//	sllint -lockgraph lockgraph.dot ./...   # emit the acquisition graph
//
// Findings can be suppressed with a justified comment on or above the
// flagged line:
//
//	//sllint:ignore <check> <reason...>
//
// for example a walorder suppression whose reason says that replay folds
// records already durable in the WAL, so logging them again would
// double-append. A suppression without a written reason is itself a finding. Exit codes:
// 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sllint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit diagnostics as a JSON array")
		checks    = fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list      = fs.Bool("list", false, "list available checks and exit")
		lockgraph = fs.String("lockgraph", "", "write the lock-acquisition graph to this file (.dot or .json)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: sllint [-json] [-checks a,b] [-lockgraph out.dot] [./... | package dirs]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *checks != "" {
		want := make(map[string]bool)
		for _, c := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(c)] = true
		}
		var kept []lint.Analyzer
		var valid []string
		for _, a := range analyzers {
			valid = append(valid, a.Name())
			if want[a.Name()] {
				kept = append(kept, a)
				delete(want, a.Name())
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for u := range want {
				unknown = append(unknown, u)
			}
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "sllint: unknown check %q (valid checks: %s)\n",
				unknown[0], strings.Join(valid, ", "))
			return 2
		}
		analyzers = kept
	}
	if *lockgraph != "" && !hasLockOrder(analyzers) {
		fmt.Fprintln(stderr, "sllint: -lockgraph requires the lockorder check (add it to -checks)")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "sllint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "sllint:", err)
		return 2
	}

	var pkgs []*lint.Package
	for _, pat := range patterns {
		switch pat {
		case "./...", "...":
			all, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintln(stderr, "sllint:", err)
				return 2
			}
			pkgs = append(pkgs, all...)
		default:
			pkg, err := loader.LoadDir(strings.TrimSuffix(pat, "/"))
			if err != nil {
				fmt.Fprintln(stderr, "sllint:", err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	runner := &lint.Runner{Analyzers: analyzers, TrimDir: loader.ModuleRoot()}
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		if seen[pkg.Path] {
			continue
		}
		seen[pkg.Path] = true
		runner.Package(pkg)
	}
	diags := runner.Finish()

	if *lockgraph != "" {
		if err := writeLockGraph(*lockgraph, analyzers); err != nil {
			fmt.Fprintln(stderr, "sllint:", err)
			return 2
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "sllint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stdout, "sllint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// lockGrapher is implemented by the lockorder analyzer: the acquisition
// graph it built, plus the serializable artifact form.
type lockGrapher interface {
	LockGraph() (*callgraph.Graph, lint.LockGraphArtifact)
}

func hasLockOrder(analyzers []lint.Analyzer) bool {
	for _, a := range analyzers {
		if _, ok := a.(lockGrapher); ok {
			return true
		}
	}
	return false
}

// writeLockGraph renders the lock-acquisition graph as Graphviz DOT or
// JSON, chosen by the output file's extension.
func writeLockGraph(path string, analyzers []lint.Analyzer) error {
	for _, a := range analyzers {
		lg, ok := a.(lockGrapher)
		if !ok {
			continue
		}
		g, artifact := lg.LockGraph()
		if g == nil {
			g = callgraph.New()
		}
		var out []byte
		if strings.HasSuffix(path, ".json") {
			var err error
			out, err = json.MarshalIndent(artifact, "", "  ")
			if err != nil {
				return err
			}
			out = append(out, '\n')
		} else {
			out = []byte(g.DOT("lock-order", nil))
		}
		return os.WriteFile(path, out, 0o644)
	}
	return fmt.Errorf("-lockgraph: lockorder analyzer not in the run")
}
