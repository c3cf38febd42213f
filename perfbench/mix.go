package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"spacedc/internal/serve"
)

// Request kinds of the daemon-mix workload.
const (
	kindNetsim     = "netsim"     // cold netsim spec, fresh seed
	kindSched      = "sched"      // cold sched spec, fresh seed
	kindWorkload   = "workload"   // cold workload (QoS) spec, fresh seed
	kindExperiment = "experiment" // registered experiment, cached at set-up
	kindReplay     = "replay"     // POST of a spec this client evaluated recently
	kindResults    = "results"    // GET /v1/results/{key} of the same
	kindMetrics    = "metrics"    // GET /v1/metrics
)

// mixExperiments are the experiment specs the mix sends; set-up evaluates
// each once, so in the timed part they are cache hits.
var mixExperiments = []string{"table8", "fig9", "ext-netsim"}

// roundKinds is one client's round: 11 cold evaluations, 12 cached
// replies and one metrics poll. Its order is shuffled per round.
var roundKinds = func() []string {
	var ks []string
	add := func(k string, n int) {
		for i := 0; i < n; i++ {
			ks = append(ks, k)
		}
	}
	add(kindNetsim, 3)
	add(kindSched, 4)
	add(kindWorkload, 4)
	add(kindReplay, 6)
	add(kindExperiment, 3)
	add(kindResults, 3)
	add(kindMetrics, 1)
	return ks
}()

// recentCold bounds how far back a replay may reach: only a client's last
// few cold specs, so none has left the daemon's LRU cache (256 entries)
// however fast the other client fills it.
const recentCold = 8

// Cold netsim ring sizes: each round draws one size from each third of
// [minMixSats, maxMixSats], so every round spans the range.
const minMixSats, maxMixSats = 64, 128

// request is one generated request.
type request struct {
	Kind string `json:"kind"`
	// Method and Path address the daemon; Body is the POST body.
	Method string          `json:"method"`
	Path   string          `json:"path"`
	Body   json.RawMessage `json:"body,omitempty"`
	// Key is the spec's content address for evaluations and results GETs.
	Key string `json:"key,omitempty"`
	// Expect is the X-Cache header the mix expects ("" for metrics).
	Expect string `json:"expect,omitempty"`
	// Spec is the decoded spec of an evaluation, for the checks.
	Spec *serve.EvalSpec `json:"-"`
}

// mixClient generates one client's request sequence. The sequence depends
// only on the benchmark seed and the client number.
type mixClient struct {
	id     int
	rng    *rand.Rand
	base   int64 // first spec seed of this client
	next   int64 // spec seeds issued so far
	recent []request
}

func newMixClient(seed int64, id int) *mixClient {
	return &mixClient{
		id:   id,
		rng:  rand.New(rand.NewSource(derive(seed, fmt.Sprintf("mix-client-%d", id)))),
		base: derive(seed, "mix-spec-seeds")>>24 + int64(id)<<32,
	}
}

// freshSeed returns a spec seed no earlier request of this run used, so
// the spec misses the cache.
func (c *mixClient) freshSeed() int64 {
	c.next++
	return c.base + c.next
}

// eval builds the POST of spec.
func eval(kind string, spec serve.EvalSpec, expect string) request {
	body, err := json.Marshal(&spec)
	if err != nil {
		panic(err) // EvalSpec always marshals
	}
	key, err := spec.Key()
	if err != nil {
		panic(err)
	}
	return request{Kind: kind, Method: "POST", Path: "/v1/eval", Body: body, Key: key, Expect: expect, Spec: &spec}
}

// cold builds a cold evaluation of kind and remembers it for replays.
func (c *mixClient) cold(kind string, netsimSats int) request {
	var spec serve.EvalSpec
	switch kind {
	case kindNetsim:
		spec.Netsim = &serve.NetsimSpec{Sats: netsimSats, PerSatMbps: mixNetsimMbps, DurationSec: 60, Seed: c.freshSeed()}
	case kindSched:
		spec.Sched = &serve.SchedSpec{Satellites: mixSchedSats, Seed: c.freshSeed()}
	case kindWorkload:
		spec.Workload = &serve.WorkloadSpec{Load: mixWorkloadLoad, Seed: c.freshSeed()}
	}
	req := eval(kind, spec, "miss")
	c.recent = append(c.recent, req)
	if len(c.recent) > recentCold {
		c.recent = c.recent[1:]
	}
	return req
}

// Cold spec parameters.
const (
	mixNetsimMbps   = 25
	mixSchedSats    = 64
	mixWorkloadLoad = 1.0
)

// warmup is the client's set-up prefix: one cold spec of each kind, so the
// first round already has specs to replay. Client 0 also evaluates the
// experiment specs once.
func (c *mixClient) warmup() []request {
	var reqs []request
	if c.id == 0 {
		for _, id := range mixExperiments {
			reqs = append(reqs, eval(kindExperiment, serve.EvalSpec{Experiment: id}, "miss"))
		}
	}
	return append(reqs,
		c.cold(kindWorkload, 0),
		c.cold(kindSched, 0),
		c.cold(kindNetsim, minMixSats))
}

// round returns the client's next round of requests.
func (c *mixClient) round() []request {
	kinds := append([]string(nil), roundKinds...)
	c.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	third := (maxMixSats - minMixSats + 1) / 3
	strata := c.rng.Perm(3)
	netsims := 0
	reqs := make([]request, 0, len(kinds))
	for _, k := range kinds {
		switch k {
		case kindNetsim:
			lo := minMixSats + strata[netsims]*third
			netsims++
			reqs = append(reqs, c.cold(k, lo+c.rng.Intn(third)))
		case kindSched, kindWorkload:
			reqs = append(reqs, c.cold(k, 0))
		case kindReplay:
			prev := c.recent[c.rng.Intn(len(c.recent))]
			r := prev
			r.Kind, r.Expect = kindReplay, "hit"
			reqs = append(reqs, r)
		case kindResults:
			prev := c.recent[c.rng.Intn(len(c.recent))]
			reqs = append(reqs, request{Kind: kindResults, Method: "GET", Path: "/v1/results/" + prev.Key,
				Key: prev.Key, Expect: "hit"})
		case kindExperiment:
			id := mixExperiments[c.rng.Intn(len(mixExperiments))]
			reqs = append(reqs, eval(kindExperiment, serve.EvalSpec{Experiment: id}, "hit"))
		case kindMetrics:
			reqs = append(reqs, request{Kind: kindMetrics, Method: "GET", Path: "/v1/metrics?format=json"})
		}
	}
	return reqs
}
