package main

import (
	"strings"
	"sync"
	"time"

	"planp.dev/planp/internal/substrate"
)

const (
	// outstanding is the closed loop's window: each slot sends its next
	// request only when the previous one has been answered.
	outstanding = 8
	// gwPorts is how many client source ports the gateway load cycles
	// through (1024..65535), so the ASP's connection table settles at
	// about 64k entries.
	gwPorts = 65536 - 1024
	// lostAfter is how long a slot waits for an answer before the
	// request counts as lost and the slot sends a fresh one.
	lostAfter = 500 * time.Millisecond
	// gwSlice is the interval the gateway phase is summarized over, and
	// gwKeep the latency sample kept per interval (p99 keeps ~80 beyond).
	gwSlice = time.Second
	gwKeep  = 1 << 13
)

// closedLoop is the gateway workload's client: outstanding requests in
// flight from the client node, each a new connection (SYN) to the
// virtual server, each answered request immediately replaced by the
// next. Responses are handled on the client node's goroutine.
type closedLoop struct {
	b *bed

	mu       sync.Mutex
	stopped  bool
	next     uint32 // requests issued so far
	seq      [outstanding]uint32
	sentAt   [outstanding]time.Time
	busy     [outstanding]bool
	iv       *intervals
	end      time.Time // when the load stopped
	answered int64
	lost     int64 // unanswered past lostAfter, or never answered
	physical int64 // answered from a physical server address
	strays   int64 // answers matching no outstanding request (duplicates)
}

func newClosedLoop(b *bed) *closedLoop {
	l := &closedLoop{b: b}
	fn := l.onResponse
	b.onResponse.Store(&fn)
	return l
}

// sendLocked issues slot's next request. The slot is encoded in the
// low bits of the sequence number, which the servers echo.
func (l *closedLoop) sendLocked(slot int) {
	n := l.next
	l.next++
	l.seq[slot] = n*outstanding + uint32(slot)
	l.sentAt[slot] = time.Now()
	l.busy[slot] = true
	l.b.sendRequest(uint16(1024+n%gwPorts), l.seq[slot])
}

func (l *closedLoop) onResponse(pkt *substrate.Packet) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	slot := int(pkt.TCP.Seq % outstanding)
	if !l.busy[slot] || l.seq[slot] != pkt.TCP.Seq {
		l.strays++
		return
	}
	l.busy[slot] = false
	if pkt.IP.Src != vip {
		l.physical++
	} else {
		l.answered++
		l.iv.add(now, float64(now.Sub(l.sentAt[slot]))/1e3)
	}
	if !l.stopped {
		l.sendLocked(slot)
	}
}

// run drives the loop for d and returns once every request is answered
// or given up on.
func (l *closedLoop) run(d time.Duration, seed int64) {
	l.mu.Lock()
	l.iv = newIntervals(gwSlice, gwKeep, seed)
	for s := 0; s < outstanding; s++ {
		l.sendLocked(s)
	}
	l.mu.Unlock()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		time.Sleep(50 * time.Millisecond)
		l.mu.Lock()
		for s := 0; s < outstanding; s++ {
			if l.busy[s] && time.Since(l.sentAt[s]) > lostAfter {
				l.lost++
				l.sendLocked(s)
			}
		}
		l.mu.Unlock()
	}
	l.mu.Lock()
	l.stopped = true
	l.end = time.Now()
	l.mu.Unlock()
	drain := time.Now().Add(lostAfter)
	for time.Now().Before(drain) {
		l.mu.Lock()
		idle := true
		for s := 0; s < outstanding; s++ {
			idle = idle && !l.busy[s]
		}
		l.mu.Unlock()
		if idle {
			return
		}
		time.Sleep(time.Millisecond)
	}
	l.mu.Lock()
	for s := 0; s < outstanding; s++ {
		if l.busy[s] {
			l.busy[s] = false
			l.lost++
		}
	}
	l.mu.Unlock()
}

// runGateway measures live forwarding through the JIT-compiled
// round-robin gateway ASP; a traced run then adapts the running
// network (runAdaptation).
func runGateway(o options) (*result, error) {
	spans := newSpanRecorder()
	b, setup, err := setupBed(spans)
	if err != nil {
		return nil, err
	}
	defer b.close()
	res := newResult(setup)

	gwReg := b.daemons["d1"].Net.Metrics()
	var c0, c1 map[string]int64
	var gw0, gw1 [2]int64
	phase := func() (phaseStats, error) {
		loop := newClosedLoop(b)
		c0 = b.counters()
		gw0 = [2]int64{gwReg.Counter("asp.gw.invoke_ns").Value(), gwReg.Counter("asp.gw.processed").Value()}
		served0 := [2]int64{b.served[0].Load(), b.served[1].Load()}
		loop.run(o.seconds, o.seed)
		c1 = b.counters()
		gw1 = [2]int64{gwReg.Counter("asp.gw.invoke_ns").Value(), gwReg.Counter("asp.gw.processed").Value()}
		loop.mu.Lock()
		defer loop.mu.Unlock()
		attempted := loop.answered + loop.lost + loop.physical
		failed := loop.lost + loop.physical + loop.strays
		res.note("requests %d answered from %s, %d lost, %d from a physical address, %d duplicates; s0 served %d, s1 %d",
			loop.answered, vip, loop.lost, loop.physical, loop.strays,
			b.served[0].Load()-served0[0], b.served[1].Load()-served0[1])
		if failed > 0 || b.served[0].Load() == served0[0] || b.served[1].Load() == served0[1] {
			res.correct = false
		}
		res.attempted += attempted
		res.failed += failed
		res.ops = loop.answered
		return loop.iv.stats(loop.end)
	}
	if err := measure(o, res, spans, phase); err != nil {
		return nil, err
	}

	if o.trace {
		invokeNS := perOp(gw1[0]-gw0[0], gw1[1]-gw0[1])
		res.layer["engine.invoke_ns"] = invokeNS
		res.layer["rtnet.path_us"] = res.tracedP50 - 2*invokeNS/1e3
		rtnetCounters(res, c0, c1)
		if err := runAdaptation(o, b, spans, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// rtnetCounters reports the data plane's drop counters, by reason, as
// deltas across the traced phase, from every daemon's registry.
func rtnetCounters(res *result, c0, c1 map[string]int64) {
	delta := func(match func(string) bool) float64 {
		var d int64
		for k, v := range c1 {
			if match(k) {
				d += v - c0[k]
			}
		}
		return float64(d)
	}
	res.layer["rtnet.node_drops"] = delta(func(k string) bool {
		return strings.HasPrefix(k, "node.") && strings.HasSuffix(k, ".dropped_pkts")
	})
	res.layer["rtnet.link_drops"] = delta(func(k string) bool {
		return strings.HasPrefix(k, "link.") && strings.HasSuffix(k, ".dropped_pkts") && !strings.HasSuffix(k, ".fault_dropped_pkts")
	})
	res.layer["rtnet.fault_drops"] = delta(func(k string) bool {
		return strings.HasPrefix(k, "link.") && strings.HasSuffix(k, ".fault_dropped_pkts")
	})
	res.layer["rtnet.codec_rejected"] = delta(func(k string) bool { return k == "rtnet.codec_rejected" })
	res.layer["rtnet.reconnects"] = delta(func(k string) bool { return k == "rtnet.reconnects" })
}
