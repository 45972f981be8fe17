package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// BenchmarkSllint measures a full cold run of the suite over this
// repository — parse, type-check, analyze, every package. This is the
// latency a CI gate or a pre-commit hook pays; CI bounds it with a
// wall-clock cap on the sllint step. It also doubles as a cleanliness
// assertion: the repo at HEAD must produce zero findings.
func BenchmarkSllint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := lint.NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.LoadAll()
		if err != nil {
			b.Fatal(err)
		}
		runner := &lint.Runner{Analyzers: lint.DefaultAnalyzers(), TrimDir: loader.ModuleRoot()}
		for _, pkg := range pkgs {
			runner.Package(pkg)
		}
		if diags := runner.Finish(); len(diags) != 0 {
			b.Fatalf("repository is not sllint-clean: %d finding(s), first: %s", len(diags), diags[0])
		}
	}
}
