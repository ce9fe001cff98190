package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"kbtable"
)

var stageNames = []string{"search.prepare", "search.enumerate", "search.aggregate", "search.rank"}

func stages(pi kbtable.PlanInfo) []time.Duration {
	return []time.Duration{pi.Prepare, pi.Enumerate, pi.Aggregate, pi.Rank}
}

// searchLayers accumulates the counters SearchPlan returns.
type searchLayers struct {
	stage       [4]mean
	materialize mean
	pruned      mean
	le          int
	n           int
}

// add folds one search: wall is the SearchPlan call's wall time.
func (s *searchLayers) add(pi kbtable.PlanInfo, wall time.Duration) {
	var st time.Duration
	for i, d := range stages(pi) {
		s.stage[i].add(ms(d))
		st += d
	}
	s.materialize.add(max(0, ms(wall-st)))
	s.pruned.add(float64(pi.BoundPruned))
	if pi.Algorithm == kbtable.LinearEnum {
		s.le++
	}
	s.n++
}

func (s *searchLayers) into(o *outcome) {
	for i, name := range []string{"search.prepare_ms", "search.enumerate_ms", "search.aggregate_ms", "search.rank_ms"} {
		o.layers[name] = s.stage[i].value()
	}
	o.layers["kbtable.materialize_ms"] = s.materialize.value()
	o.layers["search.bound_pruned"] = s.pruned.value()
	o.layers["search.le_share"] = ratio(float64(s.le), float64(s.n))
}

func indexLayers(o *outcome, st kbtable.IndexStats) {
	o.layers["index.build_s"] = st.BuildSeconds
	o.layers["index.mb"] = st.SizeMB
	o.layers["index.entries"] = float64(st.Entries)
	o.props["index_entries"] = st.Entries
}

// buildEngine is the library user's set-up: LoadGraph, then NewEngine.
func buildEngine(c *corpus, shards int) (*kbtable.Engine, time.Duration, error) {
	t0 := time.Now()
	g, err := kbtable.LoadGraph(c.path)
	if err != nil {
		return nil, 0, err
	}
	eng, err := kbtable.NewEngine(g, kbtable.EngineOptions{Shards: shards})
	if err != nil {
		return nil, 0, err
	}
	return eng, time.Since(t0), nil
}

// runQuery runs query-cold (shards == 1) or query-sharded (shards == 2):
// timed passes of Auto searches over the whole pool in a seeded order,
// then a batch of library updates. The pool is larger than the plan
// cache, so every search in the cyclic order runs the planner probe.
//
// The traced run gives a second engine the same queries, interleaved
// one by one with the untraced engine's, so that drift in the host's
// speed falls on both sides of the tracing-overhead comparison alike.
func runQuery(p params, c *corpus, shards int) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(p.seed))
	order := rng.Perm(len(c.pool))
	updates := makeUpdates(rng, c.vocab, p.updates)
	ctx := context.Background()
	auto := kbtable.SearchOptions{K: p.k, Algorithm: kbtable.Auto, MaxRowsPerTable: p.maxRows}

	var eng *kbtable.Engine
	var setups []float64
	for i := 0; i < p.setups; i++ {
		eng = nil
		runtime.GC()
		var d time.Duration
		var err error
		if eng, d, err = buildEngine(c, shards); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	indexLayers(o, eng.IndexStats())
	// A traced run adds the engine it traces and, when sharded, one for
	// untraced SearchDistributed calls: the traced path's own baseline.
	engines := []*kbtable.Engine{eng}
	extra := 0
	if p.trace {
		extra = min(shards, 2)
	}
	for ; extra > 0; extra-- {
		e, _, err := buildEngine(c, shards)
		if err != nil {
			return nil, err
		}
		engines = append(engines, e)
	}

	// Warm up on the tail of the order: the plan-cache entries it leaves
	// are evicted before the first pass reaches those queries again.
	for _, e := range engines {
		for _, qi := range order[len(order)-min(p.warmup, len(order)):] {
			if _, _, err := e.SearchPlan(ctx, c.pool[qi], auto); err != nil {
				return nil, fmt.Errorf("warm-up %q: %w", c.pool[qi], err)
			}
		}
	}

	// Every pass must reproduce the first pass's answers. ops_s sums each
	// query's median time over the passes, so a burst of interference
	// during one pass does not move it.
	digests := make([]uint64, len(c.pool))
	resolved := make([]kbtable.Algorithm, len(c.pool))
	times := make([][]float64, len(c.pool))
	seen := make([]bool, len(c.pool))
	var lat []time.Duration
	var sl searchLayers
	measure := func(pass, qi int) {
		o.attempted++
		t0 := time.Now()
		ans, pi, err := eng.SearchPlan(ctx, c.pool[qi], auto)
		d := time.Since(t0)
		if err != nil {
			o.fail("search %q: %v", c.pool[qi], err)
			return
		}
		lat = append(lat, d)
		times[qi] = append(times[qi], d.Seconds())
		sl.add(pi, d)
		h := digest(ans)
		if !seen[qi] {
			seen[qi], digests[qi], resolved[qi] = true, h, pi.Algorithm
		} else if digests[qi] != h {
			o.fail("pass %d: answers to %q differ from the first pass", pass, c.pool[qi])
		}
	}
	pc0 := eng.PlanCacheStats()
	if !p.trace {
		for pass := 0; pass < p.passes; pass++ {
			for _, qi := range order {
				measure(pass, qi)
			}
		}
	} else {
		rec := newRecorder()
		pt := &planTracer{eng: engines[1], rec: rec}
		lx := &legExecutor{eng: engines[1], rec: rec}
		ex := &explicitRuns{eng: eng, best: make([]time.Duration, len(c.pool))}
		var plain time.Duration // untraced SearchDistributed
		for req, qi := range order {
			measure(0, qi)
			q := c.pool[qi]
			if shards == 1 {
				pt.op(o, req+1, q, auto, digests[qi])
				ex.op(o, p, q, qi, digests[qi], resolved[qi])
				continue
			}
			o.attempted++
			t0 := time.Now()
			ans, _, err := engines[2].SearchDistributed(ctx, localExecutor{engines[2]}, q, auto)
			plain += time.Since(t0)
			if err != nil || digest(ans) != digests[qi] {
				o.fail("distributed search %q: answers differ from SearchPlan's or failed (%v)", q, err)
			}
			lx.op(o, req+1, q, auto, digests[qi])
		}
		untraced := sum(lat)
		if shards == 1 {
			o.report["search.probe_ms"] = pt.probe.value()
			o.report["search.regret"] = float64(sum(lat)) / float64(sum(ex.best))
		} else {
			lx.into(o, len(order))
			o.report["shard.distributed_over_plan"] = float64(plain) / float64(untraced)
			untraced = plain
		}
		o.traceSummary(rec.spans, len(order), ms(untraced))
	}
	pc1 := eng.PlanCacheStats()
	planHits := float64(pc1.Hits - pc0.Hits)
	o.layers["search.plan_cache_hit_ratio"] = ratio(planHits, planHits+float64(pc1.Misses-pc0.Misses))
	sl.into(o)
	var perPass float64
	for _, ts := range times {
		perPass += median(ts)
	}
	o.e2e["ops_s"] = float64(len(c.pool)) / perPass
	o.e2e["search_p50_ms"] = percentile(lat, 0.50)
	o.e2e["search_p99_ms"] = percentile(lat, 0.99)
	o.props["searches"] = len(lat)
	o.props["search_p99_beyond"] = beyond(len(lat), 0.99)
	o.props["plan_cache_hit_ratio"] = o.layers["search.plan_cache_hit_ratio"]
	o.props["result_cache_hit_ratio"] = 0.0
	o.props["le_share"] = o.layers["search.le_share"]
	o.props["top5_share"] = topShare(lat)

	// Library updates: the index-maintenance path without serve or store.
	var ulat []time.Duration
	var apply, dirty mean
	cur := eng
	for i, u := range updates {
		o.attempted++
		t0 := time.Now()
		ne, res, err := cur.ApplyUpdate(u)
		d := time.Since(t0)
		if err != nil {
			o.fail("update %d: %v", i, err)
			continue
		}
		if len(res.NewEntities) != 1 {
			o.fail("update %d created %d entities, want 1", i, len(res.NewEntities))
		}
		ulat = append(ulat, d)
		apply.add(ms(res.Elapsed))
		dirty.add(float64(res.DirtyRoots))
		cur = ne
	}
	o.e2e["update_p50_ms"] = percentile(ulat, 0.50)
	o.e2e["update_p90_ms"] = percentile(ulat, 0.90)
	o.layers["index.update_apply_ms"] = apply.value()
	o.layers["index.dirty_roots"] = dirty.value()
	o.props["updates"] = len(ulat)
	o.props["update_p90_beyond"] = beyond(len(ulat), 0.90)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.e2e["peak_rss_mb"] = rss

	if shards > 1 {
		// Outside the timed phase: the sharded answers must equal an
		// unsharded engine's over the same graph, byte for byte.
		ref, _, err := buildEngine(c, 1)
		if err != nil {
			return nil, err
		}
		same := 0
		for qi, q := range c.pool {
			ans, _, err := ref.SearchPlan(ctx, q, auto)
			if err != nil {
				return nil, fmt.Errorf("reference search %q: %w", q, err)
			}
			if !seen[qi] || digest(ans) == digests[qi] {
				same++
			} else {
				o.fail("sharded answers to %q differ from the unsharded engine's", q)
			}
		}
		o.note(same == len(c.pool), "sharded answers equal the unsharded engine's on %d of %d queries", same, len(c.pool))
	}
	return o, nil
}

// planTracer traces query-cold's operation: Engine.Plan (the planner
// probe) and then Engine.SearchPlan, which hits the plan cache the probe
// just filled — together the documented equivalent of one Auto search.
type planTracer struct {
	eng   *kbtable.Engine
	rec   *recorder
	probe mean
}

func (t *planTracer) op(o *outcome, req int, q string, auto kbtable.SearchOptions, want uint64) {
	ctx := context.Background()
	o.attempted++
	root := t.rec.open(req, 0, rootSpan)
	ps := t.rec.open(req, root, "kbtable.Plan")
	_, err := t.eng.Plan(ctx, q, auto)
	t.rec.close(ps)
	if err != nil {
		t.rec.close(root)
		o.fail("plan %q: %v", q, err)
		return
	}
	ss := t.rec.open(req, root, "kbtable.SearchPlan")
	ans, pi, err := t.eng.SearchPlan(ctx, q, auto)
	t.rec.close(ss)
	t.rec.close(root)
	t.probe.add(float64(t.rec.get(ps).dur()) / 1e6)
	if err != nil {
		o.fail("search %q: %v", q, err)
		return
	}
	s := t.rec.get(ss)
	t.rec.addStages(req, ss, s.Start, s.End, stageNames, stages(pi))
	if digest(ans) != want {
		o.fail("traced answers to %q differ from the untraced run", q)
	}
}

// explicitRuns times explicit PatternEnum and LinearEnum searches for
// search.regret: Auto's time over min(PE, LE), summed over the pool.
// Auto's answers must equal those of the algorithm it resolved to.
type explicitRuns struct {
	eng  *kbtable.Engine
	best []time.Duration
}

func (x *explicitRuns) op(o *outcome, p params, q string, qi int, want uint64, resolved kbtable.Algorithm) {
	for _, algo := range []kbtable.Algorithm{kbtable.PatternEnum, kbtable.LinearEnum} {
		o.attempted++
		t0 := time.Now()
		ans, _, err := x.eng.SearchPlan(context.Background(), q, kbtable.SearchOptions{K: p.k, Algorithm: algo, MaxRowsPerTable: p.maxRows})
		d := time.Since(t0)
		if err != nil {
			o.fail("%v search %q: %v", algo, q, err)
			continue
		}
		if x.best[qi] == 0 || d < x.best[qi] {
			x.best[qi] = d
		}
		if resolved == algo && digest(ans) != want {
			o.fail("Auto answers to %q differ from explicit %v", q, algo)
		}
	}
}

// localExecutor runs every leg of a distributed query on the engine
// itself, unrecorded.
type localExecutor struct{ eng *kbtable.Engine }

func (x localExecutor) ProbeShard(ctx context.Context, si int, query string, opts kbtable.SearchOptions) (kbtable.ShardPlanStats, error) {
	return x.eng.ProbeShard(ctx, si, query, opts)
}

func (x localExecutor) ScatterShard(ctx context.Context, si int, algo kbtable.Algorithm, query string, opts kbtable.SearchOptions) (*kbtable.ShardPartial, error) {
	return x.eng.ScatterShard(ctx, si, algo, query, opts)
}

// legExecutor is a kbtable.ShardExecutor that runs each leg on the local
// engine and records it as a span under the current operation's
// SearchDistributed span; the gather is the time from the last scatter
// leg's end to the call's return.
type legExecutor struct {
	eng *kbtable.Engine
	rec *recorder

	mu                 sync.Mutex
	req, sd            int   // current operation and its SearchDistributed span
	firstProbe, probed int64 // probe phase of the current operation (firstProbe -1: none)
	scattered, maxLeg  int64 // end of the last scatter leg, longest scatter leg
	patterns, answers  int
	legs, legMax       mean
	gather, probe      mean
}

func (x *legExecutor) leg(name string, fn func() error) error {
	id := x.rec.open(x.req, x.sd, name)
	err := fn()
	x.rec.close(id)
	s := x.rec.get(id)
	x.mu.Lock()
	defer x.mu.Unlock()
	if name == "kbtable.ProbeShard" {
		if x.firstProbe < 0 || s.Start < x.firstProbe {
			x.firstProbe = s.Start
		}
		x.probed = max(x.probed, s.End)
		return err
	}
	x.legs.add(float64(s.dur()) / 1e6)
	x.maxLeg = max(x.maxLeg, s.dur())
	x.scattered = max(x.scattered, s.End)
	return err
}

func (x *legExecutor) ProbeShard(ctx context.Context, si int, query string, opts kbtable.SearchOptions) (kbtable.ShardPlanStats, error) {
	var st kbtable.ShardPlanStats
	err := x.leg("kbtable.ProbeShard", func() (err error) {
		st, err = x.eng.ProbeShard(ctx, si, query, opts)
		return err
	})
	return st, err
}

func (x *legExecutor) ScatterShard(ctx context.Context, si int, algo kbtable.Algorithm, query string, opts kbtable.SearchOptions) (*kbtable.ShardPartial, error) {
	var part *kbtable.ShardPartial
	err := x.leg("kbtable.ScatterShard", func() (err error) {
		part, err = x.eng.ScatterShard(ctx, si, algo, query, opts)
		return err
	})
	if err == nil {
		x.mu.Lock()
		x.patterns += len(part.Patterns)
		x.mu.Unlock()
	}
	return part, err
}

// op traces query-sharded's operation: SearchDistributed through x.
func (x *legExecutor) op(o *outcome, req int, q string, auto kbtable.SearchOptions, want uint64) {
	o.attempted++
	root := x.rec.open(req, 0, rootSpan)
	sd := x.rec.open(req, root, "kbtable.SearchDistributed")
	x.req, x.sd, x.firstProbe, x.probed, x.scattered, x.maxLeg = req, sd, -1, 0, 0, 0
	ans, _, err := x.eng.SearchDistributed(context.Background(), x, q, auto)
	x.rec.close(sd)
	x.rec.close(root)
	if err != nil {
		o.fail("distributed search %q: %v", q, err)
		return
	}
	s := x.rec.get(sd)
	if x.scattered > 0 {
		x.rec.add(req, sd, "shard.gather", x.scattered, s.End)
		x.gather.add(float64(s.End-x.scattered) / 1e6)
		x.legMax.add(float64(x.maxLeg) / 1e6)
	}
	if x.firstProbe >= 0 {
		x.probe.add(float64(x.probed-x.firstProbe) / 1e6)
	}
	x.answers += len(ans)
	if digest(ans) != want {
		o.fail("distributed answers to %q differ from SearchPlan's", q)
	}
}

func (x *legExecutor) into(o *outcome, ops int) {
	o.layers["shard.partial_patterns"] = ratio(float64(x.patterns), float64(ops))
	o.layers["shard.useful_ratio"] = ratio(float64(x.answers), float64(x.patterns))
	o.report["shard.leg_ms"] = x.legs.value()
	o.report["shard.leg_max_ms"] = x.legMax.value()
	o.report["shard.gather_ms"] = x.gather.value()
	o.report["search.probe_ms"] = x.probe.value()
}
