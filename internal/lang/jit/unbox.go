// Unboxed specialization: int- and bool-typed compound expressions
// compile to closures over raw machine values (int64 / bool) instead of
// boxed value.Value, with a single box at the boundary to the generic
// layer. This is the type-driven half of the partial-evaluation analogy:
// the paper's specializer erased the C interpreter's value tagging the
// same way, because the program's types are fully known at generation
// time.
//
// The compiler reconstructs static types locally (the checker guarantees
// the program is well typed, so reconstruction cannot fail where it
// matters; anywhere the type comes back unknown we fall back to the
// boxed path, which is always correct).
package jit

import (
	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/value"
)

// icode and bcode are unboxed compiled expressions.
type (
	icode func(m *machine, frame []value.Value) int64
	bcode func(m *machine, frame []value.Value) bool
)

// enterFrame resets slot-type tracking for a new compilation context.
func (cc *compiler) enterFrame(size int, params []ast.Type) {
	cc.slots = make([]ast.Type, size)
	copy(cc.slots, params)
}

// setSlot records a let binding's declared type.
func (cc *compiler) setSlot(slot int, t ast.Type) {
	if slot >= 0 && slot < len(cc.slots) {
		cc.slots[slot] = t
	}
}

// typeOf reconstructs e's static type; nil means "unknown, use the boxed
// path".
func (cc *compiler) typeOf(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return ast.IntT
	case *ast.BoolLit:
		return ast.BoolT
	case *ast.StringLit:
		return ast.StringT
	case *ast.CharLit:
		return ast.CharT
	case *ast.UnitLit:
		return ast.UnitT
	case *ast.HostLit:
		return ast.HostT
	case *ast.Var:
		if e.Slot >= 0 {
			if e.Slot < len(cc.slots) {
				return cc.slots[e.Slot]
			}
			return nil
		}
		if e.Global >= 0 && e.Global < len(cc.info.Globals) {
			return cc.info.Globals[e.Global].Decl.Type
		}
		return nil
	case *ast.Proj:
		if tup, ok := cc.typeOf(e.Tuple).(ast.Tuple); ok && e.Index-1 < len(tup.Elems) {
			return tup.Elems[e.Index-1]
		}
		return nil
	case *ast.Let:
		// Binding types are declared; record them so the body sees them
		// even when typeOf runs before compilation touches the Let.
		for _, b := range e.Binds {
			cc.setSlot(b.Slot, b.Type)
		}
		return cc.typeOf(e.Body)
	case *ast.If:
		return cc.typeOf(e.Then)
	case *ast.Seq:
		return cc.typeOf(e.Exprs[len(e.Exprs)-1])
	case *ast.TupleExpr:
		elems := make([]ast.Type, len(e.Elems))
		for i, sub := range e.Elems {
			elems[i] = cc.typeOf(sub)
			if elems[i] == nil {
				return nil
			}
		}
		return ast.Tuple{Elems: elems}
	case *ast.Unary:
		if e.Op == "not" {
			return ast.BoolT
		}
		return ast.IntT
	case *ast.Binary:
		switch e.Op {
		case "+", "-", "*", "/", "mod":
			return ast.IntT
		case "^":
			return ast.StringT
		default:
			return ast.BoolT
		}
	case *ast.Try:
		return cc.typeOf(e.Body)
	case *ast.Call:
		if e.FunIndex >= 0 {
			return cc.info.Funs[e.FunIndex].Decl.Ret
		}
		if e.PrimIndex >= 0 {
			p := prims.Get(e.PrimIndex)
			if p.TypeFn == nil {
				return p.Ret
			}
			args := make([]ast.Type, len(e.Args))
			for i, a := range e.Args {
				args[i] = cc.typeOf(a)
				if args[i] == nil {
					return nil
				}
			}
			ret, err := prims.TypeOf(e.PrimIndex, args, nil)
			if err != nil {
				return nil
			}
			return ret
		}
		return ast.UnitT // OnRemote / OnNeighbor
	default:
		return nil
	}
}

// beneficial reports whether the unboxed path actually saves interior
// boxing for this node kind (a bare atom gains nothing).
func beneficial(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Binary:
		return true
	case *ast.Unary:
		return true
	case *ast.If:
		return true
	case *ast.Let:
		return true
	case *ast.Seq:
		return true
	case *ast.Call:
		_ = e
		return false
	default:
		return false
	}
}

// tryCompileInt compiles e unboxed when it is a compound int expression.
func (cc *compiler) tryCompileInt(e ast.Expr) (icode, bool) {
	if !beneficial(e) || !ast.Equal(cc.typeOf(e), ast.IntT) {
		return nil, false
	}
	return cc.compileInt(e), true
}

// tryCompileBool mirrors tryCompileInt for booleans.
func (cc *compiler) tryCompileBool(e ast.Expr) (bcode, bool) {
	if !beneficial(e) || !ast.Equal(cc.typeOf(e), ast.BoolT) {
		return nil, false
	}
	return cc.compileBool(e), true
}

// compileInt compiles an int-typed expression to unboxed code. Any node
// it does not specialize falls back to the boxed compiler with one
// unwrap at the seam.
func (cc *compiler) compileInt(e ast.Expr) icode {
	switch e := e.(type) {
	case *ast.IntLit:
		v := e.Value
		return func(*machine, []value.Value) int64 { return v }

	case *ast.Var:
		if e.Slot >= 0 {
			slot := e.Slot
			return func(_ *machine, frame []value.Value) int64 { return frame[slot].I }
		}
		gi := e.Global
		return func(m *machine, _ []value.Value) int64 { return m.globals[gi].I }

	case *ast.Proj:
		if v, ok := e.Tuple.(*ast.Var); ok && v.Slot >= 0 {
			slot, idx := v.Slot, e.Index-1
			return func(_ *machine, frame []value.Value) int64 { return frame[slot].At(idx).I }
		}

	case *ast.Unary: // "-"
		x := cc.compileInt(e.X)
		return func(m *machine, frame []value.Value) int64 { return -x(m, frame) }

	case *ast.Binary:
		l := cc.compileInt(e.L)
		r := cc.compileInt(e.R)
		switch e.Op {
		case "+":
			return func(m *machine, frame []value.Value) int64 { return l(m, frame) + r(m, frame) }
		case "-":
			return func(m *machine, frame []value.Value) int64 { return l(m, frame) - r(m, frame) }
		case "*":
			return func(m *machine, frame []value.Value) int64 { return l(m, frame) * r(m, frame) }
		case "/":
			return func(m *machine, frame []value.Value) int64 {
				n := l(m, frame)
				d := r(m, frame)
				if d == 0 {
					value.Raise("division by zero")
				}
				return n / d
			}
		case "mod":
			return func(m *machine, frame []value.Value) int64 {
				n := l(m, frame)
				d := r(m, frame)
				if d == 0 {
					value.Raise("mod by zero")
				}
				return n % d
			}
		}

	case *ast.If:
		cond := cc.compileBool(e.Cond)
		thenI := cc.compileInt(e.Then)
		elseI := cc.compileInt(e.Else)
		return func(m *machine, frame []value.Value) int64 {
			if cond(m, frame) {
				return thenI(m, frame)
			}
			return elseI(m, frame)
		}

	case *ast.Let:
		type bind struct {
			slot int
			init code
		}
		binds := make([]bind, len(e.Binds))
		for i, b := range e.Binds {
			binds[i] = bind{slot: b.Slot, init: cc.compile(b.Init)}
			cc.setSlot(b.Slot, b.Type)
		}
		body := cc.compileInt(e.Body)
		return func(m *machine, frame []value.Value) int64 {
			for _, b := range binds {
				frame[b.slot] = b.init(m, frame)
			}
			return body(m, frame)
		}

	case *ast.Seq:
		head := make([]code, len(e.Exprs)-1)
		for i, sub := range e.Exprs[:len(e.Exprs)-1] {
			head[i] = cc.compile(sub)
		}
		last := cc.compileInt(e.Exprs[len(e.Exprs)-1])
		return func(m *machine, frame []value.Value) int64 {
			for _, h := range head {
				h(m, frame)
			}
			return last(m, frame)
		}
	}

	// Seam to the boxed world (calls, try/handle, raises, projections of
	// computed tuples, ...).
	boxed := cc.compileNode(e)
	return func(m *machine, frame []value.Value) int64 { return boxed(m, frame).I }
}

// compileBool compiles a bool-typed expression to unboxed code.
func (cc *compiler) compileBool(e ast.Expr) bcode {
	switch e := e.(type) {
	case *ast.BoolLit:
		v := e.Value
		return func(*machine, []value.Value) bool { return v }

	case *ast.Var:
		if e.Slot >= 0 {
			slot := e.Slot
			return func(_ *machine, frame []value.Value) bool { return frame[slot].I != 0 }
		}
		gi := e.Global
		return func(m *machine, _ []value.Value) bool { return m.globals[gi].I != 0 }

	case *ast.Proj:
		// Mirrors compileInt's #n-of-variable fast path: bool tuple
		// fields (flags in protocol state) test without boxing.
		if v, ok := e.Tuple.(*ast.Var); ok && v.Slot >= 0 {
			slot, idx := v.Slot, e.Index-1
			return func(_ *machine, frame []value.Value) bool { return frame[slot].At(idx).I != 0 }
		}

	case *ast.Unary: // "not"
		x := cc.compileBool(e.X)
		return func(m *machine, frame []value.Value) bool { return !x(m, frame) }

	case *ast.Binary:
		switch e.Op {
		case "andalso":
			l := cc.compileBool(e.L)
			r := cc.compileBool(e.R)
			return func(m *machine, frame []value.Value) bool { return l(m, frame) && r(m, frame) }
		case "orelse":
			l := cc.compileBool(e.L)
			r := cc.compileBool(e.R)
			return func(m *machine, frame []value.Value) bool { return l(m, frame) || r(m, frame) }
		case "<", "<=", ">", ">=":
			if ast.Equal(e.OperandType, ast.IntT) || ast.Equal(e.OperandType, ast.CharT) {
				l := cc.compileInt(e.L)
				r := cc.compileInt(e.R)
				switch e.Op {
				case "<":
					return func(m *machine, frame []value.Value) bool { return l(m, frame) < r(m, frame) }
				case "<=":
					return func(m *machine, frame []value.Value) bool { return l(m, frame) <= r(m, frame) }
				case ">":
					return func(m *machine, frame []value.Value) bool { return l(m, frame) > r(m, frame) }
				default:
					return func(m *machine, frame []value.Value) bool { return l(m, frame) >= r(m, frame) }
				}
			}
		case "=", "<>":
			if t, ok := e.OperandType.(ast.Base); ok {
				switch t.Kind {
				case ast.TInt, ast.TBool, ast.TChar, ast.THost:
					l := cc.compileInt(e.L)
					r := cc.compileInt(e.R)
					neg := e.Op == "<>"
					return func(m *machine, frame []value.Value) bool {
						return (l(m, frame) == r(m, frame)) != neg
					}
				}
			}
		}

	case *ast.If:
		cond := cc.compileBool(e.Cond)
		thenB := cc.compileBool(e.Then)
		elseB := cc.compileBool(e.Else)
		return func(m *machine, frame []value.Value) bool {
			if cond(m, frame) {
				return thenB(m, frame)
			}
			return elseB(m, frame)
		}
	}

	boxed := cc.compileNode(e)
	return func(m *machine, frame []value.Value) bool { return boxed(m, frame).I != 0 }
}
