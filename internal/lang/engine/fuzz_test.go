package engine_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/value"
)

// exprGen generates random well-typed PLAN-P expressions. The generated
// programs may raise (division by zero, out-of-range accesses) — engines
// must agree on that too.
type exprGen struct {
	rng    *rand.Rand
	nextID int
	scope  []string // int-typed let-bound names currently in scope
}

func (g *exprGen) fresh() string {
	g.nextID++
	return fmt.Sprintf("x%d", g.nextID)
}

// intExpr emits an int-typed expression of bounded depth.
func (g *exprGen) intExpr(depth int) string {
	if depth <= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(21)-10)
		case 1:
			return "ps"
		case 2:
			if len(g.scope) > 0 {
				return g.scope[g.rng.Intn(len(g.scope))]
			}
			return "ps"
		default:
			return "ps"
		}
	}
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		ops := []string{"+", "-", "*", "/", "mod"}
		op := ops[g.rng.Intn(len(ops))]
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1), op, g.intExpr(depth-1))
	case 3:
		return fmt.Sprintf("(if %s then %s else %s)",
			g.boolExpr(depth-1), g.intExpr(depth-1), g.intExpr(depth-1))
	case 4:
		name := g.fresh()
		g.scope = append(g.scope, name)
		body := g.intExpr(depth - 1)
		g.scope = g.scope[:len(g.scope)-1]
		return fmt.Sprintf("(let val %s : int = %s in %s end)", name, g.intExpr(depth-1), body)
	case 5:
		return fmt.Sprintf("min(%s, %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 6:
		return fmt.Sprintf("abs(%s)", g.intExpr(depth-1))
	case 7:
		return fmt.Sprintf("(try %s handle %s end)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 8:
		return fmt.Sprintf("strLen(%s)", g.strExpr(depth-1))
	default:
		return "blobLen(#3 p) + udpDst(#2 p)"
	}
}

func (g *exprGen) boolExpr(depth int) string {
	if depth <= 0 {
		if g.rng.Intn(2) == 0 {
			return "true"
		}
		return "false"
	}
	switch g.rng.Intn(5) {
	case 0:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1), ops[g.rng.Intn(6)], g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s andalso %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s orelse %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 3:
		return fmt.Sprintf("(not %s)", g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("(%s = %s)", g.strExpr(depth-1), g.strExpr(depth-1))
	}
}

func (g *exprGen) strExpr(depth int) string {
	if depth <= 0 {
		return fmt.Sprintf("%q", strings.Repeat("ab", g.rng.Intn(3)))
	}
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s ^ %s)", g.strExpr(depth-1), g.strExpr(depth-1))
	case 1:
		return fmt.Sprintf("itos(%s)", g.intExpr(depth-1))
	default:
		return fmt.Sprintf("subStr(%s, 0, 1)", g.strExpr(depth-1)) // may raise on ""
	}
}

// TestEnginesAgreeOnRandomPrograms is the differential test: 200 random
// programs, one packet each, identical outcome (state or exception)
// required across interp and jit.
func TestEnginesAgreeOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	for i := 0; i < 200; i++ {
		checkScalarProgram(t, i, &exprGen{rng: rng})
	}
}

// checkScalarProgram runs one random int-state program under every
// engine and requires the same outcome.
func checkScalarProgram(t *testing.T, i int, g *exprGen) {
	t.Helper()
	src := fmt.Sprintf(`
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (%s, ss + 1))
`, g.intExpr(4))

	type outcome struct {
		errText string
		proto   int64
	}
	results := map[string]outcome{}
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("program %d (%s): NewInstance: %v\n%s", i, name, err, src)
		}
		pkt := langtest.UDPPacket("10.0.0.1", "10.0.0.2", 7, 9, []byte("abcd"))
		var o outcome
		if err := inst.Invoke(0, ctx, pkt); err != nil {
			o.errText = err.Error()
		} else {
			o.proto = inst.Proto.AsInt()
		}
		results[name] = o
	}
	ref := results["interp"]
	for name, o := range results {
		if o != ref {
			t.Fatalf("program %d: %s=%+v interp=%+v\nsource:\n%s", i, name, o, ref, src)
		}
	}
}

// TestEnginesAgreeOnRandomTablePrograms exercises tables and packet
// rewriting under randomness, keyed by every table-key shape: scalar
// ints, (host, int) pairs (packed when the int fits 32 bits, encoded
// otherwise), strings, and nested tuples.
func TestEnginesAgreeOnRandomTablePrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBEEF))
	for i := 0; i < 120; i++ {
		checkTableProgram(t, i, &exprGen{rng: rng})
	}
}

// keyExpr emits a random table key and its type.
func (g *exprGen) keyExpr() (typ, expr string) {
	switch g.rng.Intn(5) {
	case 0:
		return "int", g.intExpr(3)
	case 1:
		return "host*int", fmt.Sprintf("(ipSrc(#1 p), %s)", g.intExpr(2))
	case 2:
		// Ints beyond 32 bits take the encoded-key path for pairs.
		return "host*int", fmt.Sprintf("(10.0.0.9, %s * 3000000000)", g.intExpr(2))
	case 3:
		return "string", g.strExpr(2)
	default:
		return "(int*string)*host", fmt.Sprintf("((%s, %s), ipSrc(#1 p))", g.intExpr(2), g.strExpr(1))
	}
}

// checkTableProgram runs one random table program over a packet stream
// whose sources and ports repeat, so keys collide across packets, under
// every engine and requires the same outcome.
func checkTableProgram(t *testing.T, i int, g *exprGen) {
	t.Helper()
	ktyp, kexpr := g.keyExpr()
	src := fmt.Sprintf(`
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  let
    val k : %s = %s
    val v : int = if tmem(ss, k) then tget(ss, k) else 0
  in
    ((if v = 2 then tdel(ss, k) else tput(ss, k, v + 1));
     OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p, #3 p));
     (ps + v, ss))
  end
`, ktyp, kexpr)
	type outcome struct {
		errs, sent, size int
		proto            int64
	}
	results := map[string]outcome{}
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("program %d (%s): %v", i, name, err)
		}
		var o outcome
		for j := 0; j < 8; j++ {
			from := fmt.Sprintf("10.0.0.%d", 1+j%3)
			pkt := langtest.UDPPacket(from, "10.0.0.2", uint16(j%2), 9, []byte("xy"))
			if err := inst.Invoke(0, ctx, pkt); err != nil {
				o.errs++
			}
		}
		o.proto = inst.Proto.AsInt()
		o.sent = len(ctx.Sent)
		o.size = inst.Chans[0].AsTable().Len()
		results[name] = o
	}
	ref := results["interp"]
	for name, o := range results {
		if o != ref {
			t.Fatalf("program %d: %s=%+v interp=%+v\nsource:\n%s", i, name, o, ref, src)
		}
	}
}

// byteSource is a rand.Source that replays fuzz input: each Int63 takes
// the next 8 bytes (zero once the input runs out), so mutating the input
// steers exprGen's choices.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	var b [8]byte
	n := copy(b[:], s.data)
	s.data = s.data[n:]
	return int64(binary.BigEndian.Uint64(b[:]) >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzEnginesAgree is the differential test under coverage-guided
// fuzzing: the input drives exprGen to a scalar or a table program, and
// the engines must agree on it. Seeds live in testdata/fuzz.
func FuzzEnginesAgree(f *testing.F) {
	f.Add([]byte("planp"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{rng: rand.New(&byteSource{data: data})}
		if g.rng.Intn(2) == 0 {
			checkScalarProgram(t, 0, g)
		} else {
			checkTableProgram(t, 0, g)
		}
	})
}

// TestDeepNesting guards stack/register handling at depth.
func TestDeepNesting(t *testing.T) {
	expr := "1"
	for i := 0; i < 120; i++ {
		expr = fmt.Sprintf("(%s + %d)", expr, i%7)
	}
	src := fmt.Sprintf(`
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (%s, ss))
`, expr)
	var want int64 = -1
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := inst.Invoke(0, ctx, langtest.UDPPacket("1.1.1.1", "2.2.2.2", 1, 2, nil)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := inst.Proto.AsInt()
		if want == -1 {
			want = got
		} else if got != want {
			t.Errorf("%s: %d, others %d", name, got, want)
		}
	}
	if want <= 0 {
		t.Errorf("deep sum = %d", want)
	}
}

// TestNestedTryAcrossEngines checks handler nesting depth behavior.
func TestNestedTryAcrossEngines(t *testing.T) {
	src := `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val a : int =
      try
        try 1 / 0 handle (try blobByte(#3 p, 99) handle 7 end) end
      handle 100 end
    val b : int = try raise "boom" handle a + 1 end
  in
    (deliver(p); (a * 1000 + b, ss))
  end
`
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := inst.Invoke(0, ctx, langtest.UDPPacket("1.1.1.1", "2.2.2.2", 1, 2, []byte("x"))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Inner: 1/0 raises -> handler: blobByte(1-byte blob, 99) raises
		// -> its handler yields 7; so a = 7. b = a+1 = 8.
		if got := inst.Proto.AsInt(); got != 7008 {
			t.Errorf("%s: state = %d, want 7008", name, got)
		}
	}
}

// TestGlobalsAndInitstateAcrossEngines pins evaluation order: globals in
// declaration order, then initstates.
func TestGlobalsAndInitstateAcrossEngines(t *testing.T) {
	src := `
val base : int = 10
val derived : int = base * base
val msg : string = "v" ^ itos(derived)

channel network(ps : int, ss : (string) hash_table, p : ip*udp*blob)
initstate mkTable(base) is
  (tput(ss, derived, msg);
   deliver(p);
   (ps + tsize(ss), ss))
`
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := inst.Invoke(0, ctx, langtest.UDPPacket("1.1.1.1", "2.2.2.2", 1, 2, nil)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := inst.Proto.AsInt(); got != 1 {
			t.Errorf("%s: state = %d, want 1", name, got)
		}
		tbl := inst.Chans[0].AsTable()
		v, ok := tbl.Get(value.Int(100))
		if !ok || v.AsStr() != "v100" {
			t.Errorf("%s: table content wrong: %v %v", name, v, ok)
		}
	}
}

// TestFailingInitstateReportsError pins the error path of NewInstance.
func TestFailingInitstateReportsError(t *testing.T) {
	src := `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate (println(1 / 0); mkTable(4)) is
  (deliver(p); (ps, ss))
`
	// 1/0 raises during initstate evaluation.
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		if _, err := c.NewInstance(ctx); err == nil {
			t.Errorf("%s: initstate division by zero should fail NewInstance", name)
		}
	}
}
