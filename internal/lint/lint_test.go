package lint_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// sharedLoader memoizes type-checked packages across subtests: the
// fixtures that import repro/internal/wire pull in a large slice of the
// module, and loading it once is enough.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

func fixturePackage(t *testing.T, dir string) *lint.Package {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = lint.NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

// wantMarkRE extracts the expected-diagnostic regexes of one `// want`
// comment (backtick-quoted, analysistest style).
var wantMarkRE = regexp.MustCompile("`([^`]+)`")

// collectWants parses the fixture's `// want` comments into a map from
// line number to pending regexes.
func collectWants(t *testing.T, pkg *lint.Package) map[int][]*regexp.Regexp {
	t.Helper()
	wants := make(map[int][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, m := range wantMarkRE.FindAllStringSubmatch(rest, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("line %d: bad want regex %q: %v", line, m[1], err)
					}
					wants[line] = append(wants[line], re)
				}
			}
		}
	}
	return wants
}

// checkGolden runs the analyzers over the fixture and matches the
// resulting diagnostics against its `// want` comments: every diagnostic
// must be wanted, and every want must be hit. Diagnostics of the sllint
// pseudo-check (which reports at comment positions where a want marker
// cannot sit) are returned to the caller instead of matched.
func checkGolden(t *testing.T, dir string, analyzers ...lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	pkg := fixturePackage(t, dir)
	wants := collectWants(t, pkg)

	runner := &lint.Runner{Analyzers: analyzers}
	runner.Package(pkg)

	var meta []lint.Diagnostic
	for _, d := range runner.Finish() {
		if d.Check == "sllint" {
			meta = append(meta, d)
			continue
		}
		matched := false
		rest := wants[d.Line][:0]
		for _, re := range wants[d.Line] {
			if !matched && re.MatchString(d.Message) {
				matched = true
				continue
			}
			rest = append(rest, re)
		}
		wants[d.Line] = rest
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, res := range wants {
		for _, re := range res {
			t.Errorf("line %d: expected diagnostic matching %q, got none", line, re)
		}
	}
	return meta
}

func TestAnalyzersGolden(t *testing.T) {
	cases := []struct {
		dir string
		mk  func() lint.Analyzer
	}{
		{"secretflow", lint.NewSecretFlow},
		{"secretflowx", lint.NewSecretFlow},
		{"lockdisc", lint.NewLockDisc},
		{"guardedby", lint.NewGuardedBy},
		{"lockorder", lint.NewLockOrder},
		{"walorder", lint.NewWALOrder},
		{"spanend", lint.NewSpanEnd},
		{"obsnames", lint.NewObsNames},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			if meta := checkGolden(t, tc.dir, tc.mk()); len(meta) != 0 {
				t.Errorf("unexpected sllint diagnostics: %v", meta)
			}
		})
	}
}

// TestSuppressions drives the suppression (//sllint:ignore) machinery: a justified
// suppression silences the line below it; a reasonless or unknown-check
// suppression is itself a finding and silences nothing.
func TestSuppressions(t *testing.T) {
	meta := checkGolden(t, "ignore", lint.NewLockDisc())
	var gotReasonless, gotUnknown int
	for _, d := range meta {
		switch {
		case strings.Contains(d.Message, "carries no justification"):
			gotReasonless++
		case strings.Contains(d.Message, "unknown check"):
			gotUnknown++
		default:
			t.Errorf("unexpected sllint diagnostic: %s", d)
		}
	}
	if gotReasonless != 1 || gotUnknown != 1 {
		t.Errorf("sllint diagnostics: got %d reasonless + %d unknown-check, want 1 + 1 (all: %v)",
			gotReasonless, gotUnknown, meta)
	}
}

// TestDiagnosticString pins the file:line:col rendering the CI gate greps.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Check: "lockdisc", File: "internal/x/y.go", Line: 12, Col: 3, Message: "m"}
	if got, want := d.String(), "internal/x/y.go:12:3: [lockdisc] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestDefaultAnalyzers pins the suite composition and name uniqueness the
// -checks flag and suppression grammar rely on.
func TestDefaultAnalyzers(t *testing.T) {
	got := lint.DefaultAnalyzers()
	want := []string{"secretflow", "lockdisc", "guardedby", "lockorder", "walorder", "spanend", "obsnames"}
	if len(got) != len(want) {
		t.Fatalf("DefaultAnalyzers: %d analyzers, want %d", len(got), len(want))
	}
	seen := make(map[string]bool)
	for i, a := range got {
		if a.Name() != want[i] {
			t.Errorf("analyzer %d: name %q, want %q", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %q has no doc line", a.Name())
		}
		if seen[a.Name()] {
			t.Errorf("duplicate analyzer name %q", a.Name())
		}
		seen[a.Name()] = true
	}
}

// TestRunnerTrimDir checks module-relative path rendering.
func TestRunnerTrimDir(t *testing.T) {
	pkg := fixturePackage(t, "lockdisc")
	runner := &lint.Runner{Analyzers: []lint.Analyzer{lint.NewLockDisc()}, TrimDir: loader.ModuleRoot()}
	runner.Package(pkg)
	diags := runner.Finish()
	if len(diags) == 0 {
		t.Fatal("expected findings in the lockdisc fixture")
	}
	for _, d := range diags {
		if filepath.IsAbs(d.File) {
			t.Errorf("diagnostic path not trimmed to module root: %s", d.File)
		}
		if want := filepath.ToSlash(filepath.Join("internal", "lint", "testdata", "src", "lockdisc", "lockdisc.go")); filepath.ToSlash(d.File) != want {
			t.Errorf("diagnostic file = %q, want %q", d.File, want)
		}
	}
}

// TestFinishSorted checks the stable file/line/col ordering.
func TestFinishSorted(t *testing.T) {
	pkg := fixturePackage(t, "lockdisc")
	runner := &lint.Runner{Analyzers: []lint.Analyzer{lint.NewLockDisc()}}
	runner.Package(pkg)
	diags := runner.Finish()
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File == b.File && (a.Line > b.Line || (a.Line == b.Line && a.Col > b.Col)) {
			t.Errorf("diagnostics out of order: %s before %s", fmt.Sprint(a), fmt.Sprint(b))
		}
	}
}
