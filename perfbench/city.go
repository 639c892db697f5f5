package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"planp.dev/planp/internal/apps/city"
)

// cityShards is the event-loop count the city workload runs at: one
// per core of the two-core machine the benchmark is calibrated on.
const cityShards = 2

// citySetups is how many warm-up runs a city run makes; setup_s is
// their median.
const citySetups = 3

// cityMinRuns extends a phase past --seconds until this many runs have
// finished, so its tail percentile (ten runs beyond it) is always
// supported, even when a busy machine stretches a run past a second.
const cityMinRuns = 24

// runCity measures the sharded simulator on back-to-back city.Full
// runs. The preset is used exactly as the repository defines it; only
// the seed comes from the command line.
func runCity(o options) (*result, error) {
	cfg := city.Full
	cfg.Seed = o.seed
	cfg.Shards = cityShards

	// Every run must reproduce the single-shard report byte for byte.
	refCfg := cfg
	refCfg.Shards = 1
	ref, err := city.Run(refCfg)
	if err != nil {
		return nil, err
	}

	// Set-up is the unmeasured warm-up run (it also fills the runtime's
	// arenas); it is repeated and the median reported.
	var setup []float64
	for i := 0; i < citySetups; i++ {
		start := time.Now()
		r, err := city.Run(cfg)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		if r.Output != ref.Output {
			return nil, fmt.Errorf("warm-up run %d differs from the single-shard reference", i)
		}
	}
	res := newResult(median(setup))

	phase := func() (phaseStats, error) {
		var events, runs, bad int64
		var lat []float64
		var busy time.Duration
		end := time.Now().Add(o.seconds)
		for time.Now().Before(end) || runs < cityMinRuns {
			start := time.Now()
			r, err := city.Run(cfg)
			d := time.Since(start)
			busy += d
			runs++
			if err != nil || r.Output != ref.Output {
				bad++
				continue
			}
			events += int64(r.Events)
			lat = append(lat, float64(d)/1e3)
		}
		res.note("%d city runs (%d differ from the reference), %d events each, %.3f s simulating",
			runs, bad, ref.Events, busy.Seconds())
		res.attempted += runs
		res.failed += bad
		res.correct = res.correct && bad == 0
		res.ops = events
		// A run is one op; its events per second follow from the median
		// run time, which a single disturbed run does not move.
		sort.Float64s(lat)
		st, err := latencyStats(lat)
		st.rate = float64(ref.Events) / (st.p50 / 1e6)
		return st, err
	}
	if err := measure(o, res, nil, phase); err != nil {
		return nil, err
	}

	served, requests := reportValue(ref.Output, "city.total.served"), reportValue(ref.Output, "city.total.requests")
	res.note("gateways served %d of %d requests (%.4f): the modeled gateway CPU is overloaded by design",
		served, requests, float64(served)/float64(requests))
	if o.trace {
		res.layer["netsim.events"] = float64(ref.Events)
		res.layer["city.served_ratio"] = float64(served) / float64(requests)
	}
	return res, nil
}

// reportValue reads one "name value" line of a city report.
func reportValue(report, name string) int64 {
	for _, line := range strings.Split(report, "\n") {
		if k, v, ok := strings.Cut(line, " "); ok && k == name {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}
