package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// obsNames audits every metric registration against the repo's exposition
// conventions:
//
//   - names match ^[a-z][a-z0-9_]*$ (Prometheus-safe, no camelCase drift);
//   - histogram names end in a unit suffix (_seconds, _bytes, _units) so
//     bucket boundaries are interpretable;
//   - no metric name literal is registered from two different source
//     sites anywhere in the repo — duplicate registrations silently share
//     (or, across kinds, corrupt) a family;
//   - registration names are string literals, so all of the above is
//     statically checkable. Local wrapper closures that forward a name
//     parameter (`counter := func(name, ...) { reg.CounterFunc(name, ...) }`)
//     are followed: the literals at the wrapper's call sites are checked
//     instead.
//
// It applies the same discipline to the event vocabulary: every name
// passed to obs.Tracer.Mark must be a string literal matching ^[a-z][a-z0-9_.]*$ (dotted subsystem.event form), and
// each kind may have exactly one emission site in the repo — a kind
// emitted from two places can no longer be read as "this code path ran".
// Shared emissions go through a named helper holding the single literal
// (see cluster.EmitProbeTimeout). Event kinds and metric names are
// separate namespaces: a kind may coincide with a metric name. Span names
// (Tracer.Start) are not checked: a span names a code path, not an event.
type obsNames struct {
	first      map[string]token.Position // metric name -> first registration site
	firstEmit  map[string]token.Position // flight kind -> first emission site
	dups       []dupSite
	flightDups []dupSite
}

type dupSite struct {
	name  string
	pos   token.Position
	first token.Position
}

// NewObsNames returns the obsnames analyzer. It accumulates cross-package
// state: duplicates are reported in Finish, after the last package.
func NewObsNames() Analyzer {
	return &obsNames{
		first:     make(map[string]token.Position),
		firstEmit: make(map[string]token.Position),
	}
}

func (*obsNames) Name() string { return "obsnames" }
func (*obsNames) Doc() string {
	return "metric names are lower_snake and unique, histograms carry a unit suffix, and flight-event kinds are dotted literals with one emission site each"
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// flightKindRE constrains flight-event kinds: lower-case dotted
// subsystem.event identifiers.
var flightKindRE = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)

// histogramUnitSuffixes are the unit suffixes a histogram name may end in.
var histogramUnitSuffixes = []string{"_seconds", "_bytes", "_units"}

// registryMethods maps obs.Registry registration methods to whether they
// create a histogram family.
var registryMethods = map[string]bool{
	"Counter":      false,
	"Gauge":        false,
	"Histogram":    true,
	"CounterVec":   false,
	"GaugeVec":     false,
	"HistogramVec": true,
	"CounterFunc":  false,
	"GaugeFunc":    false,
}

func (a *obsNames) Run(pass *Pass) {
	for _, file := range pass.Files {
		wrappers, forwarded := findMetricWrappers(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			// Call of a local wrapper closure: the literal lives here.
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if w, isWrapper := wrappers[pass.Info.Uses[id]]; isWrapper {
					if w.nameIdx < len(call.Args) {
						a.checkName(pass, call.Args[w.nameIdx], w.method, w.isHist)
					}
					return true
				}
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if isMethodOn(fn, "internal/obs", "Tracer", "Mark") {
				a.checkFlightKind(pass, call.Args[0])
				return true
			}
			_, ok = registryMethods[fn.Name()]
			if !ok || !isMethodOn(fn, "internal/obs", "Registry", fn.Name()) {
				return true
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && forwarded[pass.Info.Uses[id]] {
				// A wrapper forwarding its name parameter: every literal was
				// checked at the wrapper's call sites above.
				return true
			}
			a.checkName(pass, call.Args[0], fn.Name(), registryMethods[fn.Name()])
			return true
		})
	}
}

// constString resolves arg to a compile-time string: a literal or a
// string-typed constant (both are statically auditable).
func constString(pass *Pass, arg ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[ast.Unparen(arg)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkName validates one metric-name argument to a registration (direct
// or through a wrapper closure) named method.
func (a *obsNames) checkName(pass *Pass, arg ast.Expr, method string, isHist bool) {
	name, ok := constString(pass, arg)
	if !ok {
		pass.Reportf(a.Name(), arg.Pos(),
			"metric name passed to Registry.%s is not a string literal: names must be statically auditable", method)
		return
	}
	if !metricNameRE.MatchString(name) {
		pass.Reportf(a.Name(), arg.Pos(),
			"metric name %q does not match %s", name, metricNameRE)
	}
	if isHist && !hasUnitSuffix(name) {
		pass.Reportf(a.Name(), arg.Pos(),
			"histogram %q lacks a unit suffix (want one of %s)", name,
			strings.Join(histogramUnitSuffixes, ", "))
	}
	pos := pass.Fset.Position(arg.Pos())
	if first, seen := a.first[name]; seen {
		a.dups = append(a.dups, dupSite{name: name, pos: pos, first: first})
	} else {
		a.first[name] = pos
	}
}

// checkFlightKind validates one kind argument to obs.Tracer.Mark.
func (a *obsNames) checkFlightKind(pass *Pass, arg ast.Expr) {
	kind, ok := constString(pass, arg)
	if !ok {
		pass.Reportf(a.Name(), arg.Pos(),
			"flight-event kind passed to Tracer.Mark is not a string literal: the event vocabulary must be statically auditable")
		return
	}
	if !flightKindRE.MatchString(kind) {
		pass.Reportf(a.Name(), arg.Pos(),
			"flight-event kind %q does not match %s", kind, flightKindRE)
	}
	pos := pass.Fset.Position(arg.Pos())
	if first, seen := a.firstEmit[kind]; seen {
		a.flightDups = append(a.flightDups, dupSite{name: kind, pos: pos, first: first})
	} else {
		a.firstEmit[kind] = pos
	}
}

// metricWrapper describes a local closure that forwards a name parameter
// to a Registry registration method — the `counter := func(name, help
// string, fn func() int64) { reg.CounterFunc(name, ...) }` idiom the
// ExposeMetrics implementations use to cut repetition.
type metricWrapper struct {
	method  string
	isHist  bool
	nameIdx int // flattened index of the forwarded name parameter
}

// findMetricWrappers locates wrapper closures in file. It returns the
// wrappers keyed by the closure variable's object, plus the set of
// forwarded name-parameter objects (so the inner non-literal registration
// is not itself reported).
func findMetricWrappers(pass *Pass, file *ast.File) (map[types.Object]metricWrapper, map[types.Object]bool) {
	wrappers := make(map[types.Object]metricWrapper)
	forwarded := make(map[types.Object]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || asg.Tok != token.DEFINE || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		lhs, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		fl, ok := asg.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		obj := pass.Info.Defs[lhs]
		if obj == nil {
			return true
		}
		var params []types.Object
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				params = append(params, pass.Info.Defs[name])
			}
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			isHist, known := registryMethods[fn.Name()]
			if !known || !isMethodOn(fn, "internal/obs", "Registry", fn.Name()) {
				return true
			}
			argID, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return true
			}
			use := pass.Info.Uses[argID]
			for i, p := range params {
				if p != nil && p == use {
					wrappers[obj] = metricWrapper{method: fn.Name(), isHist: isHist, nameIdx: i}
					forwarded[use] = true
					return false
				}
			}
			return true
		})
		return true
	})
	return wrappers, forwarded
}

// Finish reports duplicate registration literals found across the run.
func (a *obsNames) Finish(report func(check string, pos token.Position, msg string)) {
	for _, d := range a.dups {
		report(a.Name(), d.pos,
			"metric "+strconv.Quote(d.name)+" already registered at "+d.first.String()+
				": duplicate registration literals make families collide")
	}
	for _, d := range a.flightDups {
		report(a.Name(), d.pos,
			"flight-event kind "+strconv.Quote(d.name)+" already emitted at "+d.first.String()+
				": each kind gets one emission site — share it through a named helper")
	}
}

func hasUnitSuffix(name string) bool {
	for _, s := range histogramUnitSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}
