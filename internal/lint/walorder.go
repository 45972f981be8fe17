package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
)

// walOrder enforces SL-Remote's write-ahead discipline: inside a package
// named slremote, every call to an apply*Locked state-transition helper
// must be dominated by a *checked* logLocked call in the same function —
// the WAL records the outcome before the mutation is applied, and a log
// failure aborts the mutation (`if err := s.logLocked(ev); err != nil {
// return ... }`).
//
// Functions themselves named apply*Locked are exempt: they are the replay
// fold (applyBatchLocked, applyEventLocked and the helpers they share with
// the live paths), and replay must not re-log what it reads from the WAL.
type walOrder struct{}

// NewWALOrder returns the walorder analyzer.
func NewWALOrder() Analyzer { return &walOrder{} }

func (*walOrder) Name() string { return "walorder" }
func (*walOrder) Doc() string {
	return "in slremote, apply*Locked mutations must be preceded by a checked logLocked call"
}

var applyLockedRE = regexp.MustCompile(`^apply.*Locked$`)

func (a *walOrder) Run(pass *Pass) {
	if pass.Pkg.Name() != "slremote" {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if applyLockedRE.MatchString(fd.Name.Name) {
				continue // replay fold: must not re-log
			}
			a.checkFunc(pass, fd)
		}
	}
}

type walEvent struct {
	pos   token.Pos
	scope int
	kind  walEventKind
	name  string
}

type walEventKind uint8

const (
	evCheckedLog   walEventKind = iota // if err := s.logLocked(ev); err != nil { return ... }
	evUncheckedLog                     // logLocked whose error is dropped or not aborted on
	evApplyCall                        // call to apply*Locked
)

func (a *walOrder) checkFunc(pass *Pass, fd *ast.FuncDecl) {
	lits := funcLitRanges(fd.Body)
	var events []walEvent

	// Classify logLocked calls by walking statements with block context:
	// the checked form is an if-init whose body aborts with return.
	var walkStmts func(stmts []ast.Stmt)
	classifyLog := func(call *ast.CallExpr, checked bool) {
		kind := evUncheckedLog
		if checked {
			kind = evCheckedLog
		}
		events = append(events, walEvent{
			pos: call.Pos(), scope: scopeAt(lits, call.Pos()), kind: kind,
		})
	}
	walkStmts = func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			switch s := stmt.(type) {
			case *ast.IfStmt:
				if call := logLockedCallIn(s.Init); call != nil {
					classifyLog(call, isNilCheck(s.Cond) && bodyAborts(s.Body))
				}
				walkStmts(s.Body.List)
				if s.Else != nil {
					if blk, ok := s.Else.(*ast.BlockStmt); ok {
						walkStmts(blk.List)
					} else if elif, ok := s.Else.(*ast.IfStmt); ok {
						walkStmts([]ast.Stmt{elif})
					}
				}
			case *ast.AssignStmt:
				if call := logLockedCallIn(s); call != nil {
					// err := s.logLocked(ev) followed by an aborting
					// `if err != nil` is the checked two-statement form.
					checked := false
					if next, ok := nextIf(stmts, i); ok {
						checked = isNilCheck(next.Cond) && bodyAborts(next.Body)
					}
					classifyLog(call, checked)
				}
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok && isLogLockedCall(call) {
					classifyLog(call, false)
				}
			case *ast.BlockStmt:
				walkStmts(s.List)
			case *ast.ForStmt:
				walkStmts(s.Body.List)
			case *ast.RangeStmt:
				walkStmts(s.Body.List)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkStmts(cc.Body)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkStmts(cc.Body)
					}
				}
			case *ast.SelectStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						walkStmts(cc.Body)
					}
				}
			case *ast.DeferStmt, *ast.GoStmt:
				// Closure bodies are collected by the apply scan below; a
				// logLocked inside one never dominates an apply outside.
			}
		}
	}
	walkStmts(fd.Body.List)

	// apply*Locked call sites.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if applyLockedRE.MatchString(name) {
			events = append(events, walEvent{
				pos: call.Pos(), scope: scopeAt(lits, call.Pos()),
				kind: evApplyCall, name: name,
			})
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	logged := make(map[int]walEventKind) // scope -> best logLocked kind seen
	seenLog := make(map[int]bool)
	for _, ev := range events {
		switch ev.kind {
		case evCheckedLog, evUncheckedLog:
			if !seenLog[ev.scope] || ev.kind == evCheckedLog {
				logged[ev.scope] = ev.kind
			}
			seenLog[ev.scope] = true
		case evApplyCall:
			if !seenLog[ev.scope] {
				pass.Reportf(a.Name(), ev.pos,
					"%s applied without a preceding logLocked: the mutation would not survive a crash (write-ahead discipline)", ev.name)
			} else if logged[ev.scope] != evCheckedLog {
				pass.Reportf(a.Name(), ev.pos,
					"%s applied after an unchecked logLocked: a WAL append failure must abort the mutation", ev.name)
			}
		}
	}
}

// logLockedCallIn extracts a logLocked call from an assignment or if-init
// statement like `err := s.logLocked(ev)`.
func logLockedCallIn(stmt ast.Stmt) *ast.CallExpr {
	asg, ok := stmt.(*ast.AssignStmt)
	if !ok || len(asg.Rhs) != 1 {
		return nil
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || !isLogLockedCall(call) {
		return nil
	}
	// `_ = s.logLocked(ev)` drops the error: treat as unchecked by
	// reporting it through the ExprStmt-like path (caller still records
	// the call; checked-ness is decided by the surrounding form).
	return call
}

func isLogLockedCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "logLocked"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "logLocked"
	}
	return false
}

// isNilCheck matches `X != nil` conditions.
func isNilCheck(cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	return isNilIdent(bin.X) != isNilIdent(bin.Y) // exactly one side is nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// bodyAborts reports whether a block unconditionally leaves the function
// on its main path (return or panic as a top-level statement).
func bodyAborts(body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}

// nextIf returns the next statement after index i when it is an IfStmt.
func nextIf(stmts []ast.Stmt, i int) (*ast.IfStmt, bool) {
	if i+1 >= len(stmts) {
		return nil, false
	}
	next, ok := stmts[i+1].(*ast.IfStmt)
	return next, ok
}
