package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"time"

	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/obs"
	"spacedc/internal/units"
)

// derive mixes the benchmark seed with a label into an independent seed
// (splitmix64), so every generated input has its own stream.
func derive(seed int64, label string) int64 {
	z := uint64(seed)
	for _, c := range label {
		z = z*31 + uint64(c)
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & math.MaxInt64)
}

// stormFaults is the BenchmarkBigGridSweep fault regime: 5% link outage
// with a 10 s repair time plus the eclipse sweep.
var stormFaults = netsim.FaultConfig{LinkOutage: 0.05, LinkMTTRSec: 10, EclipseOutage: true}

// gridScenario is the BenchmarkBigGridSweep scenario (K=8 split-8 optical
// cluster, 0.1 Mbit/s per satellite, 60 s at 0.1 s steps) at sats
// satellites.
func gridScenario(sats int, seed int64) netsim.Scenario {
	return netsim.Scenario{
		Name: fmt.Sprintf("grid-%d", sats),
		Topology: netsim.TopologySpec{
			Kind:    netsim.ClusterTopology,
			Sats:    sats,
			Cluster: isl.Topology{K: 8, Split: 8},
			Tech:    isl.Optical10G,
		},
		PerSat:      units.Mbps / 10,
		Faults:      stormFaults,
		StepSec:     0.1,
		EpochSec:    30,
		DurationSec: 60,
		WarmupSec:   10,
		Seed:        seed,
	}
}

// stackScenario is a three-shell stack of K=8 split-8 clusters at 550, 800
// and 1050 km wired by nearest-phase cross-links, under the storm regime.
func stackScenario(seed int64) netsim.Scenario {
	sc := gridScenario(0, seed)
	sc.Name = "stack-3shell"
	sc.Topology.Sats = 0
	cl := isl.Topology{K: 8, Split: 8}
	sc.Topology.Shells = []netsim.ShellSpec{
		{Sats: 1200, Cluster: cl, AltKm: 550},
		{Sats: 1000, Cluster: cl, AltKm: 800},
		{Sats: 800, Cluster: cl, AltKm: 1050},
	}
	sc.Topology.InterShell = []netsim.InterShellRule{
		{Kind: netsim.InterShellNearest}, {Kind: netsim.InterShellNearest},
	}
	return sc
}

// faultstormScenarios is one round of netsim-faultstorm: the big-grid
// scenario at 2,000 and 20,000 satellites and the three-shell stack, each
// with its own fault seed drawn from the benchmark seed.
func faultstormScenarios(seed int64) []netsim.Scenario {
	return []netsim.Scenario{
		gridScenario(2000, derive(seed, "grid-2000")),
		gridScenario(20000, derive(seed, "grid-20000")),
		stackScenario(derive(seed, "stack-3shell")),
	}
}

// ringTech is the overloaded rings' link: the 1 Gbit/s RF Ka-band ISL of
// Table 8's first capacity column. Its rings reach the same overloaded
// regime as 10 Gbit/s optical ones with a tenth of the segments, so one
// run holds enough rings for its medians to settle on a shared host.
var ringTech = isl.RFKaBand

// ringIngress is the capacity into a ring's sink: K=2 receiver links.
var ringIngress = 2 * ringTech.Capacity

// overloadScenario is a fault-free ring of sats satellites offered factor ×
// its sink ingress for 60 simulated seconds.
func overloadScenario(sats int, factor float64, seed int64) netsim.Scenario {
	return netsim.Scenario{
		Name: fmt.Sprintf("ring-%d-x%.3f", sats, factor),
		Topology: netsim.TopologySpec{
			Kind:    netsim.ClusterTopology,
			Sats:    sats,
			Cluster: isl.Topology{K: 2, Split: 1},
			Tech:    ringTech,
		},
		PerSat:      units.DataRate(factor * float64(ringIngress) / float64(sats)),
		DurationSec: 60,
		Seed:        seed,
	}
}

// Overload ranges: ring sizes and offered load as a multiple of the sink
// ingress.
const (
	minRing, maxRing     = 28, 35
	minFactor, maxFactor = 1.4, 1.8
)

// overloadPairs is the number of ring pairs in one netsim-overload round.
const overloadPairs = 4

// overloadScenarios is one round of netsim-overload: eight rings whose
// sizes and overload factors the seed draws within the ranges. Pair i
// takes its factors from the i-th quarter of the factor range, the second
// ring of a pair mirroring the first about the middle of the quarter, and
// its sizes likewise mirrored about the middle of the size range. Every
// round therefore offers the same total load over the same number of
// satellites whatever the seed draws (host time per run grows faster than
// linearly with the load, so independent draws would make round_s depend
// on the seed).
func overloadScenarios(seed int64) []netsim.Scenario {
	rng := rand.New(rand.NewSource(derive(seed, "overload")))
	width := (maxFactor - minFactor) / overloadPairs
	var scs []netsim.Scenario
	for i := 0; i < overloadPairs; i++ {
		lo := minFactor + width*float64(i)
		u := rng.Float64()
		sats := minRing + rng.Intn(maxRing-minRing+1)
		scs = append(scs,
			overloadScenario(sats, lo+width*u, rng.Int63()),
			overloadScenario(minRing+maxRing-sats, lo+width*(1-u), rng.Int63()))
	}
	return scs
}

// netsimState is what the netsim workloads' set-up hands the timed part.
type netsimState struct {
	round []netsim.Scenario
}

// netsimWorkload builds a netsim workload from its round generator and its
// warm-up scenario.
func netsimWorkload(name string, round func(int64) []netsim.Scenario, warm func([]netsim.Scenario) netsim.Scenario,
	checkRound func([]netsim.Scenario, []netsim.Result) error, twinCheck bool) workload {
	return workload{
		name: name,
		setup: func(r *run) (any, error) {
			st := &netsimState{round: round(r.seed)}
			res, err := netsim.Run(warm(st.round))
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if res.OfferedSegs == 0 {
				return nil, fmt.Errorf("warm-up run offered nothing")
			}
			return st, nil
		},
		measure: func(r *run, state any) error {
			st := state.(*netsimState)
			m := measureNetsim(r, st.round, checkRound)
			r.set("round_s", "s", m.roundS)
			r.set("ops_per_s", "1/s", m.runsPerS)
			r.set("alloc_mb", "MB", m.allocPerRound)
			if twinCheck {
				obsTwinCheck(r, st.round[0], m.first[0])
			}
			return nil
		},
		traced: func(r *run, state any) error {
			return tracedNetsim(r, state.(*netsimState).round, checkRound)
		},
		close:  func(any) {},
		layers: []string{"netsim."},
	}
}

var faultstormWorkload = netsimWorkload("netsim-faultstorm", faultstormScenarios,
	func(round []netsim.Scenario) netsim.Scenario { return round[0] },
	nil, true)

var overloadWorkload = netsimWorkload("netsim-overload", overloadScenarios,
	func(round []netsim.Scenario) netsim.Scenario {
		// A short run of the first ring warms the same code paths
		// without paying a full minute of simulated overload.
		sc := round[0]
		sc.DurationSec = 6
		return sc
	},
	checkOverloadRound, false)

// netsimMeasure is the timed part's outcome.
type netsimMeasure struct {
	// roundS is the host seconds of one round, taking each scenario's
	// median host time over the rounds, so a burst of load from outside
	// the benchmark that slows one round does not move it.
	roundS float64
	// runsPerS is netsim.Run calls per host second over every round.
	runsPerS      float64
	allocPerRound float64
	first         []netsim.Result // the first round's results
}

// measureNetsim runs whole rounds until r.seconds have passed.
func measureNetsim(r *run, round []netsim.Scenario, checkRound func([]netsim.Scenario, []netsim.Result) error) netsimMeasure {
	var m netsimMeasure
	hostMS := make([][]float64, len(round))
	a0 := allocMB()
	start := time.Now()
	rounds := 0
	for rounds == 0 || time.Since(start).Seconds() < r.seconds {
		results := runRound(r, round, 0)
		for i, h := range results.hostMS {
			hostMS[i] = append(hostMS[i], h)
		}
		if rounds == 0 {
			m.first = results.res
		}
		if checkRound != nil {
			r.check(checkRound(round, results.res))
		}
		rounds++
	}
	m.allocPerRound = (allocMB() - a0) / float64(rounds)
	total := 0.0
	for i := range round {
		m.roundS += median(hostMS[i]) / 1e3
		total += sum(hostMS[i]) / 1e3
	}
	m.runsPerS = float64(rounds*len(round)) / total
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, median host ms per scenario %.1f\n", rounds, medians(hostMS))
	return m
}

// medians returns the median of each series.
func medians(xss [][]float64) []float64 {
	out := make([]float64, len(xss))
	for i, xs := range xss {
		out[i] = median(xs)
	}
	return out
}

// roundResults pairs each run's result with its host time.
type roundResults struct {
	res    []netsim.Result
	hostMS []float64
}

// runRound runs every scenario of a round once, timing each netsim.Run.
// With a tracer, each run gets a span under parent.
func runRound(r *run, round []netsim.Scenario, parent int) roundResults {
	var rr roundResults
	for _, sc := range round {
		id := r.trace.start("netsim.Run "+sc.Name, parent, 0)
		t0 := time.Now()
		res, err := netsim.Run(sc)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		r.trace.end(id)
		r.op(err)
		rr.res = append(rr.res, res)
		rr.hostMS = append(rr.hostMS, ms)
	}
	return rr
}

// obsTwinCheck re-runs sc with a sim-clock obs registry attached; the twin
// must produce a Result deep-equal to the bare run's. It runs outside the
// timed part. The full-recompute twin is not a check: on some seeds it
// departs from the incremental repair (see README.md), and a check that
// fails only on some seeds cannot be part of the benchmark; the traced run
// counts those departures as netsim.fullbfs_mismatches instead.
func obsTwinCheck(r *run, sc netsim.Scenario, bare netsim.Result) {
	withObs := sc
	withObs.Obs = obs.New()
	ores, err := netsim.Run(withObs)
	r.op(err)
	r.check(sameResult("obs registry", bare, ores))
}

// sameResult reports whether a twin run's Result equals the bare run's.
func sameResult(twin string, bare, got netsim.Result) error {
	if !reflect.DeepEqual(bare, got) {
		return fmt.Errorf("%s: result with %s differs from the bare run (offered %d/%d, delivered %d/%d, repairs %d/%d)",
			bare.Name, twin, bare.OfferedSegs, got.OfferedSegs, bare.DeliveredSegs, got.DeliveredSegs,
			bare.RouteRepairs, got.RouteRepairs)
	}
	return nil
}

// checkOverloadRound checks each overloaded ring against what the method
// must give, computed apart from the simulator.
func checkOverloadRound(round []netsim.Scenario, results []netsim.Result) error {
	for i, sc := range round {
		if err := checkOverload(sc, results[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkOverload checks one overloaded ring run:
//   - the offered segment count is within one segment per satellite of
//     satellites × rate × measured seconds ÷ segment bits (each source
//     carries less than one segment of fractional credit);
//   - the delivered rate does not exceed the summed capacity of the links
//     into the sinks, allowing one step of in-flight carry-over at the
//     warm-up edge;
//   - where the closed-form Fig 11 model says the ring is saturated, the
//     bottleneck link runs at 99% or more.
func checkOverload(sc netsim.Scenario, res netsim.Result) error {
	if sc.StepSec == 0 {
		sc.StepSec = netsim.DefaultStepSec
	}
	if sc.SegmentBits == 0 {
		sc.SegmentBits = netsim.DefaultSegmentBits
	}
	n := sc.Topology.TotalSats()
	want := float64(n) * float64(sc.PerSat) * res.MeasuredSec / sc.SegmentBits
	if math.Abs(float64(res.OfferedSegs)-want) > float64(n) {
		return fmt.Errorf("%s: offered %d segments, expected %.1f ± %d", sc.Name, res.OfferedSegs, want, n)
	}
	capIn := 0.0
	for _, l := range res.Links {
		if strings.Contains(l.Name, "→sudc") {
			capIn += float64(sc.Topology.Tech.Capacity)
		}
	}
	if capIn == 0 {
		return fmt.Errorf("%s: no links into a sink in the report", sc.Name)
	}
	limit := capIn * (res.MeasuredSec + sc.StepSec) / res.MeasuredSec
	if float64(res.DeliveredRate) > limit {
		return fmt.Errorf("%s: delivered %.4g bit/s exceeds sink ingress %.4g bit/s (+1 step: %.4g)",
			sc.Name, float64(res.DeliveredRate), capIn, limit)
	}
	if netsim.AnalyticBottleneckUtil(n, sc.Topology.Cluster, sc.PerSat, sc.Topology.Tech.Capacity) >= 1 &&
		res.BottleneckUtil < 0.99 {
		return fmt.Errorf("%s: saturated ring's bottleneck at %.4f utilisation, want ≥ 0.99", sc.Name, res.BottleneckUtil)
	}
	return nil
}

// tracedNetsim is the traced run of a netsim workload: traced rounds
// interleaved with untraced ones (for the tracing overhead), exact counts
// from the first traced round, the same round on the full-recompute
// routing path, and bare-versus-registry pairs for the obs overhead.
func tracedNetsim(r *run, round []netsim.Scenario, checkRound func([]netsim.Scenario, []netsim.Result) error) error {
	const pairs = 3
	tr := r.trace
	var tracedS, bareS, runMS []float64
	var first roundResults
	for i := 0; i < pairs; i++ {
		r.trace = nil
		t0 := time.Now()
		runRound(r, round, 0)
		bareS = append(bareS, time.Since(t0).Seconds())
		r.trace = tr

		id := tr.start("round", 0, 0)
		t0 = time.Now()
		rr := runRound(r, round, id)
		tracedS = append(tracedS, time.Since(t0).Seconds())
		tr.end(id)
		runMS = append(runMS, rr.hostMS...)
		if i == 0 {
			first = rr
			if checkRound != nil {
				r.check(checkRound(round, rr.res))
			}
		}
	}
	r.set("netsim.run_ms", "ms", median(runMS))
	r.set("trace.overhead_pct", "%", 100*(median(tracedS)-median(bareS))/median(bareS))

	var c struct{ faults, repairs, recomputes, rebuilds, offered, delivered, retx, dups, drops int }
	for _, res := range first.res {
		c.faults += res.FaultEvents
		c.repairs += res.RouteRepairs
		c.recomputes += res.RouteRecomputes
		c.rebuilds += res.TopologyRebuilds
		c.offered += res.OfferedSegs
		c.delivered += res.DeliveredSegs
		c.retx += res.Retransmits
		c.dups += res.Duplicates
		c.drops += res.LinkDrops
	}
	r.set("netsim.fault_events", "count", float64(c.faults))
	r.set("netsim.route_repairs", "count", float64(c.repairs))
	r.set("netsim.route_recomputes", "count", float64(c.recomputes))
	r.set("netsim.topology_rebuilds", "count", float64(c.rebuilds))
	r.set("netsim.offered_segs", "count", float64(c.offered))
	r.set("netsim.delivered_segs", "count", float64(c.delivered))
	r.set("netsim.retransmits", "count", float64(c.retx))
	r.set("netsim.duplicates", "count", float64(c.dups))
	r.set("netsim.link_drops", "count", float64(c.drops))
	r.set("netsim.ns_per_segment", "ns", sum(first.hostMS)*1e6/float64(c.offered+c.retx))

	// The full-recompute reference path on the same scenarios bounds the
	// share of host time routing repair takes. Its results should equal the
	// incremental repair's, but on some seeds they do not (see README.md),
	// so the departures are counted rather than checked.
	var fullMS []float64
	mismatches := 0
	for i, sc := range round {
		sc.FullRecompute = true
		id := tr.start("netsim.Run full-recompute "+sc.Name, 0, 0)
		t0 := time.Now()
		res, err := netsim.Run(sc)
		fullMS = append(fullMS, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(id)
		r.op(err)
		if err == nil && sameResult("FullRecompute", first.res[i], res) != nil {
			mismatches++
		}
	}
	r.set("netsim.fullbfs_ms", "ms", median(fullMS))
	r.set("netsim.fullbfs_mismatches", "count", float64(mismatches))

	// Instrumentation overhead: a sim-clock registry on Scenario.Obs
	// against a bare run of the same scenario, interleaved.
	var bareMS, obsMS []float64
	for i := 0; i < pairs; i++ {
		sc := round[0]
		t0 := time.Now()
		bare, err := netsim.Run(sc)
		bareMS = append(bareMS, float64(time.Since(t0).Nanoseconds())/1e6)
		r.op(err)
		sc.Obs = obs.New()
		id := tr.start("netsim.Run with obs "+sc.Name, 0, 0)
		t0 = time.Now()
		withObs, err := netsim.Run(sc)
		obsMS = append(obsMS, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(id)
		r.op(err)
		r.check(sameResult("obs registry", bare, withObs))
	}
	r.set("netsim.obs_overhead_pct", "%", 100*(median(obsMS)-median(bareMS))/median(bareMS))
	r.set("obs.observe_ns", "ns", observeNS(r))
	return nil
}
