package lint

// summary.go is the dataflow half of the engine: each function gets a
// Summary — which results carry secret taint, which parameters flow to
// untrusted sinks or into struct fields, which results are freshly
// allocated, which lock classes the function (transitively) acquires —
// and localTaint computes the per-function facts those summaries are
// built from. The same localTaint walk runs twice per function: once in
// summarize mode while the engine iterates to a fixpoint, and once in
// report mode when the secretflow analyzer replays it with stable
// summaries and emits diagnostics.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// maxParams bounds the parameter bitsets; parameters beyond it are
// ignored (no function in this module comes close).
const maxParams = 64

// Summary is the engine's computed model of one function.
type Summary struct {
	// returnsFresh[j]: result j is a freshly allocated object no other
	// goroutine can reach when the function returns.
	returnsFresh []bool
	// acquires maps lock classes this function acquires, directly or
	// through callees, to a witness position.
	acquires map[string]token.Pos

	// resultTaint[j]: result j carries secret bytes regardless of the
	// arguments (the function mints or unseals a secret itself).
	resultTaint []bool
	// resultFrom[j]: bitset of parameters whose taint flows, unsanitized,
	// into result j. The receiver is parameter 0.
	resultFrom []uint64
	// sinkParams: bitset of parameters that reach an untrusted sink inside
	// this function or one of its callees. Parameters that are secret by
	// declaration (seccrypto.Key type, secret name) are excluded — the
	// function reports those locally, so call sites must not double up.
	sinkParams uint64
	// sinkDesc describes, per sink parameter, the ultimate sink.
	sinkDesc map[int]string
	// paramToField: parameters stored into fields of analyzed structs;
	// when a call site passes a secret, the engine marks the field tainted
	// program-wide.
	paramToField map[int][]fieldKey
	// intrinsicFieldStores: fields this function stores intrinsically
	// tainted values into.
	intrinsicFieldStores []fieldKey
}

func newSummary(fi *FuncInfo) *Summary {
	return &Summary{
		returnsFresh: make([]bool, fi.results),
		acquires:     make(map[string]token.Pos),
		resultTaint:  make([]bool, fi.results),
		resultFrom:   make([]uint64, fi.results),
		sinkDesc:     make(map[int]string),
		paramToField: make(map[int][]fieldKey),
	}
}

// mergeTaint unions a summarize-mode run into the summary; it reports
// whether anything grew (the engine's fixpoint condition). All fields are
// monotone, so iteration converges.
func (s *Summary) mergeTaint(lt *localTaint) bool {
	changed := false
	for j := range lt.resultTaint {
		if lt.resultTaint[j] && !s.resultTaint[j] {
			s.resultTaint[j] = true
			changed = true
		}
		if lt.resultFrom[j]&^s.resultFrom[j] != 0 {
			s.resultFrom[j] |= lt.resultFrom[j]
			changed = true
		}
	}
	if lt.sinkParams&^s.sinkParams != 0 {
		s.sinkParams |= lt.sinkParams
		changed = true
	}
	for p, desc := range lt.sinkDesc {
		if _, ok := s.sinkDesc[p]; !ok {
			s.sinkDesc[p] = desc
		}
	}
	for p, keys := range lt.paramToField {
		for _, k := range keys {
			if !containsFieldKey(s.paramToField[p], k) {
				s.paramToField[p] = append(s.paramToField[p], k)
				changed = true
			}
		}
	}
	for _, k := range lt.intrFieldStores {
		if !containsFieldKey(s.intrinsicFieldStores, k) {
			s.intrinsicFieldStores = append(s.intrinsicFieldStores, k)
			changed = true
		}
	}
	return changed
}

func containsFieldKey(keys []fieldKey, k fieldKey) bool {
	for _, have := range keys {
		if have == k {
			return true
		}
	}
	return false
}

// taintVal is the two-level taint lattice element: intrinsic taint
// (definitely secret bytes) and parameter-relative taint (secret iff the
// corresponding caller argument is).
type taintVal struct {
	intr   bool
	params uint64
}

func (a taintVal) or(b taintVal) taintVal {
	return taintVal{intr: a.intr || b.intr, params: a.params | b.params}
}

func (a taintVal) zero() bool { return !a.intr && a.params == 0 }

// localTaint runs the taint walk over one function body. With pass == nil
// it summarizes (accumulating into the exported fields below); with a
// pass it reports diagnostics against stable summaries.
type localTaint struct {
	e    *Engine
	fi   *FuncInfo
	pass *ProgramPass // nil in summarize mode
	info *types.Info

	tainted   map[types.Object]taintVal
	namedRes  []types.Object // named result variables, for bare returns
	litRanges [][2]token.Pos

	// summarize-mode accumulators, merged into the Summary.
	resultTaint     []bool
	resultFrom      []uint64
	sinkParams      uint64
	sinkDesc        map[int]string
	paramToField    map[int][]fieldKey
	intrFieldStores []fieldKey
}

func newLocalTaint(e *Engine, fi *FuncInfo, pass *ProgramPass) *localTaint {
	return &localTaint{
		e:            e,
		fi:           fi,
		pass:         pass,
		info:         fi.Pkg.Info,
		tainted:      make(map[types.Object]taintVal),
		litRanges:    funcLitRanges(fi.Decl.Body),
		resultTaint:  make([]bool, fi.results),
		resultFrom:   make([]uint64, fi.results),
		sinkDesc:     make(map[int]string),
		paramToField: make(map[int][]fieldKey),
	}
}

func (lt *localTaint) run() {
	lt.seed()
	lt.propagate()
	lt.walkSinksAndFlows()
}

// seed marks every declared object that is secret by type or name, and
// every parameter with its parameter bit.
func (lt *localTaint) seed() {
	fd := lt.fi.Decl
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := lt.info.Defs[id]
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if isSeccryptoKey(obj.Type()) || (secretName(id.Name) && taintableType(obj.Type())) {
			lt.taint(obj, taintVal{intr: true})
		}
		return true
	})
	for obj, idx := range lt.fi.paramIdx {
		if idx < maxParams && taintableType(obj.Type()) {
			lt.taint(obj, taintVal{params: 1 << idx})
		}
	}
	// Named results participate in bare-return handling.
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				if obj := lt.info.Defs[name]; obj != nil {
					lt.namedRes = append(lt.namedRes, obj)
				}
			}
		}
	}
}

func (lt *localTaint) taint(obj types.Object, tv taintVal) bool {
	have := lt.tainted[obj]
	merged := have.or(tv)
	if merged == have {
		return false
	}
	lt.tainted[obj] = merged
	return true
}

// propagate runs the assignment fixpoint: any tainted right-hand side
// taints every assignable left-hand identifier (v1 semantics, lifted to
// the two-level lattice), and copy(dst, src) taints the variable dst's
// bytes live in — out in `copy(out, k.b[:]); return out` carries the key.
func (lt *localTaint) propagate() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(lt.fi.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				var tv taintVal
				for _, rhs := range n.Rhs {
					tv = tv.or(lt.exprTaint(rhs))
				}
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && lt.taintIdent(id, tv) {
						changed = true
					}
				}
			case *ast.CallExpr:
				if lt.isBuiltin(n, "copy") && len(n.Args) == 2 {
					if id := rootIdent(n.Args[0]); id != nil && lt.taintIdent(id, lt.exprTaint(n.Args[1])) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// taintIdent merges tv into the variable id names, when that variable can
// carry bytes; it reports whether the variable's taint grew.
func (lt *localTaint) taintIdent(id *ast.Ident, tv taintVal) bool {
	if tv.zero() {
		return false
	}
	obj := lt.info.Defs[id]
	if obj == nil {
		obj = lt.info.Uses[id]
	}
	if obj == nil || !taintableType(obj.Type()) {
		return false
	}
	return lt.taint(obj, tv)
}

// isBuiltin reports whether call calls the predeclared function name.
func (lt *localTaint) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := lt.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// rootIdent strips slicing, indexing, field selection and dereferences
// down to the variable whose memory e denotes (nil when there is none,
// e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprTaint reports what evaluating e can yield: intrinsic secret bytes,
// parameter-relative taint, or neither.
func (lt *localTaint) exprTaint(e ast.Expr) taintVal {
	if e == nil {
		return taintVal{}
	}
	if tv, ok := lt.info.Types[e]; ok && !taintableType(tv.Type) {
		return taintVal{}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := lt.info.Uses[e]
		if obj == nil {
			obj = lt.info.Defs[e]
		}
		var tv taintVal
		if obj != nil {
			tv = lt.tainted[obj]
			if isSeccryptoKey(obj.Type()) {
				tv.intr = true
			}
		}
		if secretName(e.Name) {
			tv.intr = true
		}
		return tv
	case *ast.SelectorExpr:
		var tv taintVal
		if sel := lt.info.Uses[e.Sel]; sel != nil && isSeccryptoKey(sel.Type()) {
			tv.intr = true
		}
		if secretName(e.Sel.Name) {
			tv.intr = true
		}
		if x, ok := lt.info.Types[e.X]; ok && isSeccryptoKey(x.Type) {
			tv.intr = true // a Key's fields are its bytes
		}
		if k, ok := lt.fieldKeyOf(e); ok {
			if lt.e.fieldTaint[k] {
				tv.intr = true // the field holds secret bytes somewhere in the program
			}
			// Field-sensitive: a resolvable field of an analyzed struct
			// carries only its own taint (key type, secret name, recorded
			// field store) — not the base struct's. opts.Dir stays clean
			// even when opts.SealKey is a key.
			return tv
		}
		return tv.or(lt.exprTaint(e.X))
	case *ast.CallExpr:
		return lt.callTaint(e)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return taintVal{}
		}
		return lt.exprTaint(e.X).or(lt.exprTaint(e.Y))
	case *ast.UnaryExpr:
		return lt.exprTaint(e.X)
	case *ast.StarExpr:
		return lt.exprTaint(e.X)
	case *ast.ParenExpr:
		return lt.exprTaint(e.X)
	case *ast.IndexExpr:
		return lt.exprTaint(e.X)
	case *ast.SliceExpr:
		return lt.exprTaint(e.X)
	case *ast.CompositeLit:
		var tv taintVal
		for _, el := range e.Elts {
			tv = tv.or(lt.exprTaint(el))
		}
		return tv
	case *ast.KeyValueExpr:
		return lt.exprTaint(e.Value)
	case *ast.TypeAssertExpr:
		return lt.exprTaint(e.X)
	default:
		return taintVal{}
	}
}

// callTaint decides what a call's result carries. Sanitizers launder,
// seccrypto.Validate re-introduces plaintext, analyzed callees answer
// from their summaries, and unknown callees propagate taint from receiver
// and arguments (v1's conservative rule).
func (lt *localTaint) callTaint(call *ast.CallExpr) taintVal {
	fn := calleeFunc(lt.info, call)
	if fn != nil {
		if isSanitizer(fn) {
			return taintVal{}
		}
		if pkgPathHasSuffix(fn.Pkg(), "internal/seccrypto") && fn.Name() == "Validate" {
			return taintVal{intr: true} // recovered plaintext payload
		}
		if target := lt.e.funcs[fn]; target != nil && target.summary != nil {
			return lt.summaryCallTaint(call, target)
		}
	}
	// Conversions like string(rootKey) keep the taint of their operand;
	// builtin len/cap land on untaintable result types upstream.
	var tv taintVal
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		tv = tv.or(lt.exprTaint(sel.X))
	}
	for _, arg := range call.Args {
		tv = tv.or(lt.exprTaint(arg))
	}
	return tv
}

// summaryCallTaint answers a call to an analyzed function from its
// summary: intrinsic result taint carries unconditionally; parameter-
// relative result taint carries the taint of the matching arguments.
func (lt *localTaint) summaryCallTaint(call *ast.CallExpr, target *FuncInfo) taintVal {
	s := target.summary
	var out taintVal
	for j := range s.resultTaint {
		if s.resultTaint[j] {
			out.intr = true
		}
	}
	var args [][]ast.Expr
	for j := range s.resultFrom {
		bits := s.resultFrom[j]
		if bits == 0 {
			continue
		}
		if args == nil {
			args = argsByParam(call, target)
		}
		for p := 0; p < len(args) && p < maxParams; p++ {
			if bits&(1<<p) == 0 {
				continue
			}
			for _, a := range args[p] {
				out = out.or(lt.exprTaint(a))
			}
		}
	}
	return out
}

// argsByParam maps a call's argument expressions onto the callee's
// parameter indexes (receiver = 0; variadic extras land on the last
// parameter). Slots with no syntactic argument stay empty.
func argsByParam(call *ast.CallExpr, callee *FuncInfo) [][]ast.Expr {
	n := callee.numParams()
	if n == 0 {
		return nil
	}
	args := make([][]ast.Expr, n)
	offset := 0
	if callee.Decl.Recv != nil {
		offset = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args[0] = []ast.Expr{sel.X}
		}
	}
	for i, a := range call.Args {
		p := i + offset
		if p >= n {
			p = n - 1 // variadic tail
		}
		args[p] = append(args[p], a)
	}
	return args
}

// numParams counts the function's parameters including the receiver.
func (fi *FuncInfo) numParams() int {
	sig, ok := fi.Fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	return n
}

// fieldKeyOf resolves a selector to (named struct type, field), when the
// struct is declared in an analyzed package.
func (lt *localTaint) fieldKeyOf(sel *ast.SelectorExpr) (fieldKey, bool) {
	v, ok := lt.info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return fieldKey{}, false
	}
	tv, ok := lt.info.Types[sel.X]
	if !ok {
		return fieldKey{}, false
	}
	named := namedType(tv.Type)
	if named == nil || !lt.e.analyzedPkg(named.Obj().Pkg()) {
		return fieldKey{}, false
	}
	return fieldKey{typ: named.Obj(), field: sel.Sel.Name}, true
}

// ---- sinks, field flows, and returns ----

func (lt *localTaint) walkSinksAndFlows() {
	ast.Inspect(lt.fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			lt.checkCallSink(n)
		case *ast.CompositeLit:
			lt.checkWireComposite(n)
		case *ast.AssignStmt:
			lt.checkWireFieldAssign(n)
			lt.recordFieldStores(n)
		case *ast.ReturnStmt:
			lt.recordReturn(n)
		}
		return true
	})
}

// sinkHit handles one value reaching a sink: intrinsic taint is reported
// (report mode), pure parameter-relative taint becomes a sink-parameter
// summary entry (summarize mode). A value that is both (a parameter
// secret by declaration) is reported locally and deliberately NOT
// summarized, so the call site does not report it a second time.
func (lt *localTaint) sinkHit(tv taintVal, pos token.Pos, desc string, format string, fargs ...any) {
	if tv.intr {
		if lt.pass != nil {
			lt.pass.Reportf("secretflow", pos, format, fargs...)
		}
		return
	}
	if tv.params == 0 || lt.pass != nil {
		return
	}
	lt.sinkParams |= tv.params
	for p := 0; p < maxParams; p++ {
		if tv.params&(1<<p) != 0 {
			if _, ok := lt.sinkDesc[p]; !ok {
				lt.sinkDesc[p] = desc
			}
		}
	}
}

func (lt *localTaint) checkCallSink(call *ast.CallExpr) {
	fn := calleeFunc(lt.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "log":
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln",
			"Panic", "Panicf", "Panicln", "Output":
			lt.hitArgs(call, "log."+fn.Name())
		}
	case path == "fmt":
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			lt.hitArgs(call, "fmt."+fn.Name())
		case "Errorf", "Sprintf":
			lt.hitVerbArgs(call, "fmt."+fn.Name())
		}
	case pkgPathHasSuffix(fn.Pkg(), "internal/obs"):
		// Every value handed to obs becomes scrape- or trace-visible on an
		// unauthenticated endpoint.
		for _, arg := range call.Args {
			lt.sinkHit(lt.exprTaint(arg), arg.Pos(), "obs."+fn.Name(),
				"secret value reaches obs.%s: metric/label/annotation values are exported unauthenticated", fn.Name())
		}
	case pkgPathHasSuffix(fn.Pkg(), "internal/cli"):
		// Whitelisted: cli.Fatalf is the single audited fatal path for
		// flag-validation errors.
	default:
		lt.checkForwarding(call, fn)
	}
}

// checkForwarding is the interprocedural half: a call to an analyzed
// function whose summary says parameter p reaches a sink is itself a sink
// for argument p.
func (lt *localTaint) checkForwarding(call *ast.CallExpr, fn *types.Func) {
	target := lt.e.funcs[fn]
	if target == nil || target.summary == nil || target.summary.sinkParams == 0 {
		return
	}
	if isSanitizer(fn) {
		return
	}
	args := argsByParam(call, target)
	for p := 0; p < len(args) && p < maxParams; p++ {
		if target.summary.sinkParams&(1<<p) == 0 {
			continue
		}
		desc := target.summary.sinkDesc[p]
		for _, a := range args[p] {
			lt.sinkHit(lt.exprTaint(a), a.Pos(), desc,
				"secret value passed to %s, which forwards it to %s", funcDisplayName(fn), desc)
		}
	}
}

func (lt *localTaint) hitArgs(call *ast.CallExpr, sink string) {
	for _, arg := range call.Args {
		lt.sinkHit(lt.exprTaint(arg), arg.Pos(), sink,
			"secret value reaches untrusted sink %s", sink)
	}
}

// hitVerbArgs maps fmt verbs to arguments and flags tainted arguments
// consumed by a rendering verb (%v %s %x %X %q). %w is exempt: wrapping
// an error does not print key bytes (errors are untaintable).
func (lt *localTaint) hitVerbArgs(call *ast.CallExpr, sink string) {
	if len(call.Args) == 0 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		// Non-constant format: flag any tainted argument.
		lt.hitArgs(call, sink)
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs := parseVerbs(format)
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			break
		}
		if flaggedVerbs[verb] {
			arg := call.Args[argIdx]
			lt.sinkHit(lt.exprTaint(arg), arg.Pos(), sink,
				"secret value rendered by %%%c verb in %s", verb, sink)
		}
	}
}

func (lt *localTaint) checkWireComposite(clit *ast.CompositeLit) {
	tv, ok := lt.info.Types[clit]
	if !ok || !isWireStruct(tv.Type) {
		return
	}
	tname := namedType(tv.Type).Obj().Name()
	for _, el := range clit.Elts {
		val := el
		field := ""
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = id.Name
			}
		}
		lt.sinkHit(lt.exprTaint(val), val.Pos(),
			"unsealed wire field "+tname+"."+field,
			"secret value stored in unsealed wire field %s.%s: seal with seccrypto before it crosses the wire",
			tname, field)
	}
}

func (lt *localTaint) checkWireFieldAssign(asg *ast.AssignStmt) {
	for i, lhs := range asg.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		tv, ok := lt.info.Types[sel.X]
		if !ok || !isWireStruct(tv.Type) {
			continue
		}
		rhs := asg.Rhs[0]
		if len(asg.Rhs) == len(asg.Lhs) {
			rhs = asg.Rhs[i]
		}
		tname := namedType(tv.Type).Obj().Name()
		lt.sinkHit(lt.exprTaint(rhs), rhs.Pos(),
			"unsealed wire field "+tname+"."+sel.Sel.Name,
			"secret value stored in unsealed wire field %s.%s: seal with seccrypto before it crosses the wire",
			tname, sel.Sel.Name)
	}
}

// recordFieldStores feeds the engine's program-wide field taint: storing
// an intrinsic secret into a struct field marks the field; storing a
// parameter records the parameter→field flow so call sites decide.
func (lt *localTaint) recordFieldStores(asg *ast.AssignStmt) {
	if lt.pass != nil {
		return // summaries are stable during the report pass
	}
	for i, lhs := range asg.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if tv, ok := lt.info.Types[sel.X]; ok && isWireStruct(tv.Type) {
			continue // wire stores are sinks, handled above
		}
		k, ok := lt.fieldKeyOf(sel)
		if !ok {
			continue
		}
		if fobj := lt.info.Uses[sel.Sel]; fobj != nil {
			if isSeccryptoKey(fobj.Type()) || !taintableType(fobj.Type()) {
				continue // intrinsic by type, or cannot carry bytes
			}
		}
		rhs := asg.Rhs[0]
		if len(asg.Rhs) == len(asg.Lhs) {
			rhs = asg.Rhs[i]
		}
		tv := lt.exprTaint(rhs)
		if tv.intr {
			if !containsFieldKey(lt.intrFieldStores, k) {
				lt.intrFieldStores = append(lt.intrFieldStores, k)
			}
			continue
		}
		for p := 0; p < maxParams; p++ {
			if tv.params&(1<<p) != 0 && !containsFieldKey(lt.paramToField[p], k) {
				lt.paramToField[p] = append(lt.paramToField[p], k)
			}
		}
	}
}

// recordReturn accumulates result taint for the summary (summarize mode,
// outer function body only).
func (lt *localTaint) recordReturn(ret *ast.ReturnStmt) {
	if lt.pass != nil || lt.fi.results == 0 {
		return
	}
	if scopeAt(lt.litRanges, ret.Pos()) != -1 {
		return // a closure's return is not the function's
	}
	if len(ret.Results) == 0 {
		// Bare return: named results carry whatever was assigned to them.
		var tv taintVal
		for _, obj := range lt.namedRes {
			tv = tv.or(lt.tainted[obj])
		}
		for j := 0; j < lt.fi.results; j++ {
			if tv.intr {
				lt.resultTaint[j] = true
			}
			lt.resultFrom[j] |= tv.params
		}
		return
	}
	if len(ret.Results) != lt.fi.results {
		// Tuple forwarding (return f()): union the call's taint over all
		// results.
		var tv taintVal
		for _, res := range ret.Results {
			tv = tv.or(lt.exprTaint(res))
		}
		for j := 0; j < lt.fi.results; j++ {
			if tv.intr {
				lt.resultTaint[j] = true
			}
			lt.resultFrom[j] |= tv.params
		}
		return
	}
	for j, res := range ret.Results {
		tv := lt.exprTaint(res)
		if tv.intr {
			lt.resultTaint[j] = true
		}
		lt.resultFrom[j] |= tv.params
	}
}
