package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"spacedc/internal/apps"
	"spacedc/internal/experiments"
	"spacedc/internal/gpusim"
	"spacedc/internal/obs"
	"spacedc/internal/qos"
	"spacedc/internal/sched"
	"spacedc/internal/serve"
)

// mixClients is the closed loop's client count: two connections, each
// sending its next request only after the previous reply.
const mixClients = 2

// minColdPerClient makes every run measure at least 100 cold requests, five
// rounds per client, so round_s is a median of ten rounds or more however
// slow the host.
const minColdPerClient = 50

// daemonState is the running daemon and the clients' generators.
type daemonState struct {
	base    string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	clients []*mixClient
	conns   []*http.Client
	// coldBody holds the body of every cold evaluation by key, filled by
	// set-up and, after each loop, from the loop's cold replies.
	coldBody map[string][]byte
}

var daemonWorkload = workload{
	name:    "daemon-mix",
	setup:   setupDaemon,
	measure: measureDaemon,
	traced:  tracedDaemon,
	close: func(state any) {
		if st, ok := state.(*daemonState); ok {
			st.stop()
		}
	},
	layers: []string{"serve.", "sched.", "qos."},
}

// setupDaemon starts sudcsimd's handler on a loopback listener (MaxInFlight
// 2, Workers 1, default cache and queue), waits for /healthz, and sends
// each client's warm-up requests.
func setupDaemon(r *run) (any, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &daemonState{
		base:     "http://" + ln.Addr().String(),
		srv:      serve.New(serve.Config{MaxInFlight: 2, Workers: 1}),
		served:   make(chan error, 1),
		coldBody: map[string][]byte{},
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	go func() { st.served <- st.hs.Serve(ln) }()
	for i := 0; i < mixClients; i++ {
		st.clients = append(st.clients, newMixClient(r.seed, i))
		st.conns = append(st.conns, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	if err := st.healthy(); err != nil {
		st.stop()
		return nil, err
	}
	for i, c := range st.clients {
		for _, req := range c.warmup() {
			res := st.send(i, req, 0, nil)
			if err := res.err(); err != nil {
				st.stop()
				return nil, fmt.Errorf("warm-up %s: %w", req.Kind, err)
			}
			st.coldBody[req.Key] = res.body
		}
	}
	return st, nil
}

// healthy polls /healthz until it answers 200.
func (st *daemonState) healthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := st.conns[0].Get(st.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains and shuts the daemon down and waits for its serve loop.
func (st *daemonState) stop() {
	st.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx) //nolint:errcheck — best effort at exit
	<-st.served
	for _, c := range st.conns {
		c.CloseIdleConnections()
	}
}

// response is one reply as the client saw it.
type response struct {
	req     request
	status  int
	xcache  string
	body    []byte
	ms      float64
	sendErr error
}

// err reports a transport error or a non-200 status.
func (res response) err() error {
	if res.sendErr != nil {
		return fmt.Errorf("%s %s: %w", res.req.Method, res.req.Path, res.sendErr)
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("%s %s (%s): status %d: %s", res.req.Method, res.req.Path, res.req.Kind, res.status, bytes.TrimSpace(res.body))
	}
	return nil
}

// send issues one request on client i's connection and reads the whole
// reply. With a tracer, the request gets a span under parent.
func (st *daemonState) send(i int, req request, parent int, tr *tracer) response {
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	res := response{req: req}
	hreq, err := http.NewRequest(req.Method, st.base+req.Path, body)
	if err != nil {
		res.sendErr = err
		return res
	}
	id := tr.start(req.Method+" "+req.Kind, parent, tr.request())
	t0 := time.Now()
	resp, err := st.conns[i].Do(hreq)
	if err == nil {
		res.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.status = resp.StatusCode
		res.xcache = resp.Header.Get("X-Cache")
	}
	res.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	res.sendErr = err
	return res
}

// mixOutcome is what the closed loop measured.
type mixOutcome struct {
	responses [][]response // per client
	rounds    int          // client rounds completed, over all clients
	roundS    []float64    // wall seconds of each client round
	elapsed   float64
}

// loop runs the closed loop: every client runs whole rounds until minS
// seconds have passed and it has made at least minCold cold requests, or,
// with fixedRounds > 0, exactly that many rounds.
func (st *daemonState) loop(r *run, minS float64, minCold, fixedRounds int) mixOutcome {
	out := mixOutcome{responses: make([][]response, len(st.clients))}
	rounds := make([]int, len(st.clients))
	roundS := make([][]float64, len(st.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range st.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			colds := 0
			for {
				if fixedRounds > 0 && rounds[i] == fixedRounds {
					return
				}
				if fixedRounds == 0 && colds >= minCold && time.Since(start).Seconds() >= minS {
					return
				}
				parent := r.trace.start(fmt.Sprintf("client %d round %d", i, rounds[i]), 0, 0)
				t0 := time.Now()
				for _, req := range st.clients[i].round() {
					res := st.send(i, req, parent, r.trace)
					if res.req.Expect == "miss" {
						colds++
					}
					out.responses[i] = append(out.responses[i], res)
				}
				r.trace.end(parent)
				roundS[i] = append(roundS[i], time.Since(t0).Seconds())
				rounds[i]++
			}
		}(i)
	}
	wg.Wait()
	out.elapsed = time.Since(start).Seconds()
	for i, n := range rounds {
		out.rounds += n
		out.roundS = append(out.roundS, roundS[i]...)
	}
	return out
}

// measureDaemon runs the timed closed loop and checks every reply.
func measureDaemon(r *run, state any) error {
	st := state.(*daemonState)
	a0 := allocMB()
	out := st.loop(r, r.seconds, minColdPerClient, 0)
	alloc := (allocMB() - a0) / float64(out.rounds)
	lat := st.verify(r, out)
	r.set("round_s", "s", median(out.roundS))
	r.set("ops_per_s", "1/s", float64(lat.requests)/out.elapsed)
	r.set("alloc_mb", "MB", alloc)
	st.checkExperimentTexts(r)
	return nil
}

// latencies are the client latencies of one loop, by class.
type latencies struct {
	requests     int
	cold, cached []float64
	coldByKind   map[string][]float64
	cachedBytes  []float64
}

// verify counts every reply as an operation and checks it:
//   - the status is 200 and X-Cache is what the mix expected;
//   - an evaluation's key equals the client's EvalSpec.Key();
//   - every hit and results replay is byte-identical to the cold body for
//     its key;
//   - sched stats satisfy Arrived = Processed + Dropped + LeftOver;
//   - every workload class satisfies Offered = Completed + the three shed
//     counts + Failed + InFlight.
func (st *daemonState) verify(r *run, out mixOutcome) latencies {
	lat := latencies{coldByKind: map[string][]float64{}}
	// Record every cold body first, so each replay finds the body of its
	// cold request whichever client's replies are walked first.
	for _, rs := range out.responses {
		for _, res := range rs {
			if res.req.Expect == "miss" && res.err() == nil {
				st.coldBody[res.req.Key] = res.body
			}
		}
	}
	for _, rs := range out.responses {
		for _, res := range rs {
			err := res.err()
			r.op(err)
			if err != nil {
				continue
			}
			lat.requests++
			r.check(st.checkReply(res))
			switch res.req.Expect {
			case "miss":
				lat.cold = append(lat.cold, res.ms)
				lat.coldByKind[res.req.Kind] = append(lat.coldByKind[res.req.Kind], res.ms)
			case "hit":
				lat.cached = append(lat.cached, res.ms)
				lat.cachedBytes = append(lat.cachedBytes, float64(len(res.body)))
			}
		}
	}
	return lat
}

// replyBody is the part of an evaluation reply the checks read.
type replyBody struct {
	Key      string       `json:"key"`
	Text     string       `json:"text"`
	Sched    *sched.Stats `json:"sched_stats"`
	Workload *qos.Result  `json:"workload_result"`
	Netsim   *struct{}    `json:"netsim_result"`
}

// checkReply checks one successful reply.
func (st *daemonState) checkReply(res response) error {
	req := res.req
	if req.Kind == kindMetrics {
		return nil
	}
	if res.xcache != req.Expect {
		return fmt.Errorf("%s %s: X-Cache %q, the mix expected %q", req.Kind, req.Key, res.xcache, req.Expect)
	}
	if req.Expect == "hit" {
		if cold, ok := st.coldBody[req.Key]; !ok || !bytes.Equal(cold, res.body) {
			return fmt.Errorf("%s %s: reply is not byte-identical to the cold body", req.Kind, req.Key)
		}
	}
	var body replyBody
	if err := json.Unmarshal(res.body, &body); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", req.Kind, req.Key, err)
	}
	if body.Key != req.Key {
		return fmt.Errorf("%s: reply key %s, the client's EvalSpec.Key() is %s", req.Kind, body.Key, req.Key)
	}
	if req.Expect != "miss" {
		return nil
	}
	switch req.Kind {
	case kindSched:
		if body.Sched == nil {
			return fmt.Errorf("sched %s: no sched_stats", req.Key)
		}
		return schedConserved(*body.Sched)
	case kindWorkload:
		if body.Workload == nil {
			return fmt.Errorf("workload %s: no workload_result", req.Key)
		}
		return workloadConserved(*body.Workload)
	case kindNetsim:
		if body.Netsim == nil {
			return fmt.Errorf("netsim %s: no netsim_result", req.Key)
		}
	}
	return nil
}

// schedConserved checks sched's frame conservation.
func schedConserved(s sched.Stats) error {
	if s.Arrived != s.Processed+s.Dropped+s.LeftOver {
		return fmt.Errorf("sched: arrived %d != processed %d + dropped %d + left over %d",
			s.Arrived, s.Processed, s.Dropped, s.LeftOver)
	}
	return nil
}

// workloadConserved checks qos's per-class request conservation.
func workloadConserved(res qos.Result) error {
	if len(res.Classes) == 0 {
		return fmt.Errorf("workload %s: no classes", res.Name)
	}
	var errs []error
	for _, c := range res.Classes {
		if got := c.Completed + c.ShedAdmission + c.ShedDeadline + c.ShedOverflow + c.Failed + c.InFlight; got != c.Offered {
			errs = append(errs, fmt.Errorf("workload %s class %s: offered %d != completed %d + shed %d/%d/%d + failed %d + in flight %d",
				res.Name, c.Name, c.Offered, c.Completed, c.ShedAdmission, c.ShedDeadline, c.ShedOverflow, c.Failed, c.InFlight))
		}
	}
	return errors.Join(errs...)
}

// checkExperimentTexts checks, outside the timed part, that each
// experiment spec's text is byte-identical to the rendered tables of
// experiments.Run for the same ID.
func (st *daemonState) checkExperimentTexts(r *run) {
	for _, id := range mixExperiments {
		key, err := (&serve.EvalSpec{Experiment: id}).Key()
		if err != nil {
			r.check(err)
			continue
		}
		tables, err := experiments.Run(context.Background(), id)
		r.op(err)
		if err != nil {
			continue
		}
		var body replyBody
		if err := json.Unmarshal(st.coldBody[key], &body); err != nil {
			r.check(fmt.Errorf("experiment %s: decoding reply: %w", id, err))
			continue
		}
		if body.Text != renderTables(tables) {
			r.check(fmt.Errorf("experiment %s: daemon text differs from experiments.Run", id))
		}
	}
}

// tracedRounds is how many untraced and how many traced rounds each
// client runs in the traced run.
const tracedRounds = 3

// tracedDaemon is the traced run of daemon-mix: untraced and traced rounds
// of the same mix, alternating (for the tracing overhead), the daemon's
// own counters, and direct calls into sched and qos on the inputs of the
// traced rounds' cold specs.
func tracedDaemon(r *run, state any) error {
	st := state.(*daemonState)
	tr := r.trace
	var bareS, tracedS float64
	var traced []response
	lat := latencies{coldByKind: map[string][]float64{}}
	for i := 0; i < tracedRounds; i++ {
		r.trace = nil
		bare := st.loop(r, 0, 0, 1)
		st.verify(r, bare)
		r.trace = tr
		out := st.loop(r, 0, 0, 1)
		l := st.verify(r, out)
		bareS += bare.elapsed
		tracedS += out.elapsed
		for _, rs := range out.responses {
			traced = append(traced, rs...)
		}
		for k, v := range l.coldByKind {
			lat.coldByKind[k] = append(lat.coldByKind[k], v...)
		}
		lat.cold = append(lat.cold, l.cold...)
		lat.cached = append(lat.cached, l.cached...)
		lat.cachedBytes = append(lat.cachedBytes, l.cachedBytes...)
	}
	r.set("trace.overhead_pct", "%", 100*(tracedS-bareS)/bareS)

	r.set("serve.cold_p50_ms", "ms", percentile(lat.cold, 0.5))
	r.set("serve.cold_p90_ms", "ms", percentile(lat.cold, 0.9))
	r.set("serve.cached_p50_ms", "ms", percentile(lat.cached, 0.5))
	r.set("serve.cold_netsim_ms", "ms", median(lat.coldByKind[kindNetsim]))
	r.set("serve.cold_sched_ms", "ms", median(lat.coldByKind[kindSched]))
	r.set("serve.cold_workload_ms", "ms", median(lat.coldByKind[kindWorkload]))
	r.set("serve.response_kb", "KB", median(lat.cachedBytes)/1e3)

	snap, err := st.metrics()
	r.op(err)
	if err == nil {
		counter := func(name string) float64 {
			for _, c := range snap.Counters {
				if c.Name == name {
					return float64(c.Value)
				}
			}
			return 0
		}
		hits, done := counter("serve.eval.cache_hits"), counter("serve.eval.completed")
		r.set("serve.cache_hits", "count", hits)
		r.set("serve.completed", "count", done)
		r.set("serve.hit_ratio", "ratio", hits/(hits+done))
		for _, h := range snap.Histograms {
			if h.Name == "serve.eval_secs" {
				r.set("serve.eval_p50_ms", "ms", h.P50*1e3)
			}
		}
	}

	var specs []*serve.EvalSpec
	var colds []response
	for _, res := range traced {
		specs = append(specs, res.req.Spec)
		if res.req.Expect == "miss" {
			colds = append(colds, res)
		}
	}
	r.set("serve.key_us", "us", keyMicros(specs))
	directLayers(r, colds)
	r.set("obs.observe_ns", "ns", observeNS(r))
	return nil
}

// metrics fetches the daemon's /v1/metrics snapshot.
func (st *daemonState) metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	res := st.send(0, request{Kind: kindMetrics, Method: "GET", Path: "/v1/metrics?format=json"}, 0, nil)
	if err := res.err(); err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(res.body, &snap)
}

// keyMicros times EvalSpec.Key over the specs of the traced rounds and
// returns microseconds per call (best of three passes).
func keyMicros(specs []*serve.EvalSpec) float64 {
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		n := 0
		t0 := time.Now()
		for k := 0; k < 20; k++ {
			for _, s := range specs {
				if s == nil {
					continue
				}
				s.Key() //nolint:errcheck — timed only; the mix checked every key
				n++
			}
		}
		us := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
		if trial == 0 || us < best {
			best = us
		}
	}
	return best
}

// directLayers calls sched.Simulate and qos.Run directly on the inputs of
// the cold sched and workload specs, timing each call, and checks that each
// direct result equals the one the daemon served.
func directLayers(r *run, colds []response) {
	tr := r.trace
	var schedMS, qosMS []float64
	frames, requests := 0, 0
	for _, res := range colds {
		var body replyBody
		if err := json.Unmarshal(res.body, &body); err != nil {
			r.check(err)
			continue
		}
		switch res.req.Kind {
		case kindSched:
			cfg, proc, err := schedInputs(res.req.Spec.Sched)
			if err != nil {
				r.op(err)
				continue
			}
			cfg.Obs = obs.New()
			id := tr.start("sched.Simulate", 0, 0)
			t0 := time.Now()
			stats, err := sched.Simulate(cfg, proc)
			schedMS = append(schedMS, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(id)
			r.op(err)
			if err == nil && !reflect.DeepEqual(stats, *body.Sched) {
				r.check(fmt.Errorf("sched %s: direct run differs from the daemon's", res.req.Key))
			}
			frames += stats.Arrived
		case kindWorkload:
			ws := res.req.Spec.Workload
			sc, err := experiments.WorkloadScenario(qos.PolicyPriorityRetry, qos.CampaignCombined, ws.Load, ws.DurationSec, ws.Seed)
			if err != nil {
				r.op(err)
				continue
			}
			sc.Obs = obs.New()
			id := tr.start("qos.Run", 0, 0)
			t0 := time.Now()
			qres, err := qos.Run(sc)
			qosMS = append(qosMS, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(id)
			r.op(err)
			if err == nil && !reflect.DeepEqual(qres, *body.Workload) {
				r.check(fmt.Errorf("workload %s: direct run differs from the daemon's", res.req.Key))
			}
			requests += qres.Offered
		}
	}
	r.set("sched.simulate_ms", "ms", median(schedMS))
	r.set("qos.run_ms", "ms", median(qosMS))
	r.set("sched.frames", "count", float64(frames))
	r.set("qos.requests", "count", float64(requests))
}

// calibrateMS times the process's first experiments.WorkloadScenario call,
// which pays the one-time QoS network calibration, net of a second call.
func calibrateMS(r *run) {
	call := func() float64 {
		id := r.trace.start("experiments.WorkloadScenario", 0, 0)
		t0 := time.Now()
		_, err := experiments.WorkloadScenario(qos.PolicyPriorityRetry, qos.CampaignCombined, mixWorkloadLoad, 0, 1)
		r.trace.end(id)
		r.op(err)
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	first := call()
	r.set("qos.calibrate_ms", "ms", first-call())
}

// schedInputs builds the sched.Simulate inputs of a sched spec the way the
// daemon documents them: flood detection on an RTX 3090 unless the spec
// names others, a 1.5 s frame period, 1 Mpx frames, the processor's optimal
// target batch, a 120 s batching wait bound, a 1000-frame queue and 600
// simulated seconds for every field the spec leaves zero.
func schedInputs(ss *serve.SchedSpec) (sched.Config, sched.Processor, error) {
	if ss.App != "" || ss.Device != "" {
		return sched.Config{}, nil, fmt.Errorf("sched spec names app %q device %q; the mix sends defaults only", ss.App, ss.Device)
	}
	proc, err := sched.NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, ss.Replicas)
	if err != nil {
		return sched.Config{}, nil, err
	}
	or := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	cfg := sched.Config{
		Satellites:     ss.Satellites,
		FramePeriodSec: or(ss.FramePeriodSec, 1.5),
		PixelsPerFrame: or(ss.PixelsPerFrame, 1e6),
		QueueLimit:     ss.QueueLimit,
		TargetBatch:    ss.TargetBatch,
		MaxBatch:       ss.MaxBatch,
		MaxWaitSec:     or(ss.MaxWaitSec, 120),
		DurationSec:    or(ss.DurationSec, 600),
		Seed:           ss.Seed,
	}
	if cfg.TargetBatch == 0 {
		cfg.TargetBatch = proc.OptimalTargetBatch()
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 1000
	}
	return cfg, proc, nil
}
