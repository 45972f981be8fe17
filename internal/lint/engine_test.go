package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// engineOver builds the interprocedural engine over one fixture package
// by running the default (program-analyzer-bearing) suite.
func engineOver(t *testing.T, dir string) *lint.Engine {
	t.Helper()
	pkg := fixturePackage(t, dir)
	runner := &lint.Runner{Analyzers: []lint.Analyzer{lint.NewLockDisc()}}
	runner.Package(pkg)
	runner.Finish()
	e := runner.Engine()
	if e == nil {
		t.Fatal("Runner.Engine() nil after Finish with a program analyzer")
	}
	return e
}

func findFunc(t *testing.T, e *lint.Engine, name string) *lint.FuncInfo {
	t.Helper()
	for _, fi := range e.Funcs() {
		if fi.Fn.Name() == name {
			return fi
		}
	}
	t.Fatalf("function %q not indexed by the engine", name)
	return nil
}

func TestEngineCallGraphEdges(t *testing.T) {
	e := engineOver(t, "lockdisc")
	add := findFunc(t, e, "Add")
	bump := findFunc(t, e, "bumpLocked")

	var addCallsBump bool
	for _, edge := range e.Callees(add.Fn) {
		if edge.Callee != nil && edge.Callee.Fn == bump.Fn {
			addCallsBump = true
			if edge.Caller.Fn != add.Fn {
				t.Errorf("edge caller = %v, want Add", edge.Caller.Fn)
			}
		}
	}
	if !addCallsBump {
		t.Error("Callees(Add) does not include bumpLocked")
	}

	var bumpCalledByAdd bool
	for _, edge := range e.Callers(bump.Fn) {
		if edge.Caller.Fn == add.Fn {
			bumpCalledByAdd = true
		}
	}
	if !bumpCalledByAdd {
		t.Error("Callers(bumpLocked) does not include Add")
	}

	if e.FuncOf(add.Fn) != add {
		t.Error("FuncOf does not round-trip a Funcs() entry")
	}
}

func TestEngineReceiverFreshOnly(t *testing.T) {
	e := engineOver(t, "lockdisc")
	// restoreLocked is called only on fresh locals: the greatest-fixpoint
	// proves its receiver never escapes before the call.
	if fi := findFunc(t, e, "restoreLocked"); !e.ReceiverFreshOnly(fi.Fn) {
		t.Error("restoreLocked should be receiver-fresh-only")
	}
	// bumpLocked is called on published receivers all over the fixture.
	if fi := findFunc(t, e, "bumpLocked"); e.ReceiverFreshOnly(fi.Fn) {
		t.Error("bumpLocked must not be receiver-fresh-only")
	}
}

func TestEngineExportedCallGraph(t *testing.T) {
	e := engineOver(t, "lockorder")
	g := e.CallGraph()
	if g.Len() == 0 {
		t.Fatal("exported call graph is empty")
	}
	var cdName, lockDName string
	for _, name := range g.Names() {
		if strings.HasSuffix(name, ".CD") {
			cdName = name
		}
		if strings.HasSuffix(name, ".lockD") {
			lockDName = name
		}
	}
	if cdName == "" || lockDName == "" {
		t.Fatalf("exported graph missing fixture functions: %v", g.Names())
	}
	if g.CallWeight(cdName, lockDName) == 0 {
		t.Errorf("exported graph missing CD → lockD edge")
	}
	// The function-level call graph of the fixture is acyclic even though
	// its lock graph is not.
	if cycles := g.Cycles(); len(cycles) != 0 {
		t.Errorf("fixture call graph should be a DAG, got %v", cycles)
	}
}

// TestEngineSummariesTransfer pins the interprocedural secretflow flow
// end to end at the API level: the report for a helper that forwards its
// parameter into a sink lands at the tainted call site.
func TestEngineSummariesTransfer(t *testing.T) {
	pkg := fixturePackage(t, "secretflowx")
	runner := &lint.Runner{Analyzers: []lint.Analyzer{lint.NewSecretFlow()}}
	runner.Package(pkg)
	var relayed bool
	for _, d := range runner.Finish() {
		if strings.Contains(d.Message, "passed to relay") {
			relayed = true
		}
	}
	if !relayed {
		t.Error("no call-site diagnostic for the relay helper")
	}
}

// TestSecretFlowWholeModule analyzes internal/seccrypto alongside the
// secretflowx fixture, as `sllint ./...` does: Key.Bytes then answers from
// its own summary instead of the conservative unknown-callee rule, so the
// bytes it copies out of the key must still come back secret.
func TestSecretFlowWholeModule(t *testing.T) {
	pkg := fixturePackage(t, "secretflowx")
	dep, err := loader.LoadDir(filepath.Join("..", "seccrypto"))
	if err != nil {
		t.Fatalf("loading seccrypto: %v", err)
	}
	runner := &lint.Runner{Analyzers: []lint.Analyzer{lint.NewSecretFlow()}}
	runner.Package(dep)
	runner.Package(pkg)
	want := map[string]bool{"passed to relay": false, "passed to forward": false, "EscrowRequest.Key": false}
	for _, d := range runner.Finish() {
		for frag := range want {
			if strings.Contains(d.Message, frag) {
				want[frag] = true
			}
		}
	}
	for frag, hit := range want {
		if !hit {
			t.Errorf("whole-module run lost the %q finding", frag)
		}
	}
}
