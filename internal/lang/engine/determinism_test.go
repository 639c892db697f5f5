package engine_test

import (
	"testing"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/value"
)

// TestEngineDeterminism replays the same packet sequence twice through
// fresh instances of each engine and requires bit-identical protocol
// state and effect logs — hidden map-iteration order or allocation
// timing must never leak into semantics.
func TestEngineDeterminism(t *testing.T) {
	packets := make([]value.Value, 0, 30)
	for i := 0; i < 30; i++ {
		packets = append(packets,
			langtest.TCPPacket("10.0.1.1", "10.0.0.100", uint16(4000+i%7), 80,
				[]byte("GET /doc"+string(rune('a'+i%5)))))
	}
	for name, c := range langtest.CompileAll(t, asp.HTTPGateway) {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				proto string
				sends string
			}
			run := func() outcome {
				ctx := langtest.NewCtx()
				inst, err := c.NewInstance(ctx)
				if err != nil {
					t.Fatal(err)
				}
				ci := langtest.FindChannel(t, c.Info(), "network")
				for _, pkt := range packets {
					if err := inst.Invoke(ci, ctx, pkt); err != nil {
						t.Fatal(err)
					}
				}
				var sends string
				for _, s := range ctx.Sent {
					sends += s.Pkt.At(0).AsIP().Dst.String() + ";"
				}
				return outcome{proto: inst.Proto.String(), sends: sends}
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("nondeterministic execution:\n%+v\nvs\n%+v", a, b)
			}
		})
	}
}

// TestStateIsolationBetweenInstances: two downloads of one compiled
// program never share protocol or channel state (each node's download is
// independent, §2.4).
func TestStateIsolationBetweenInstances(t *testing.T) {
	for name, c := range langtest.CompileAll(t, asp.HTTPGateway) {
		ctx := langtest.NewCtx()
		i1, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		i2, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ci := langtest.FindChannel(t, c.Info(), "network")
		pkt := langtest.TCPPacket("10.0.1.1", "10.0.0.100", 4001, 80, []byte("GET /"))
		for j := 0; j < 5; j++ {
			if err := i1.Invoke(ci, ctx, pkt); err != nil {
				t.Fatal(err)
			}
		}
		if value.Equal(i1.Chans[ci], i2.Chans[ci]) && i1.Chans[ci].Kind == value.KindTable {
			// Equal would be true only if i2's table gained i1's entries
			// (tables compare by reference-held contents; fresh i2 must
			// stay empty).
			if i2.Chans[ci].AsTable().Len() != 0 {
				t.Errorf("%s: instance state leaked", name)
			}
		}
		if i2.Chans[ci].AsTable().Len() != 0 {
			t.Errorf("%s: second instance's table has %d entries", name, i2.Chans[ci].AsTable().Len())
		}
	}
}
