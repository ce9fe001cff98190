package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/serve"
)

const (
	// updateEvery puts one update in every 20 ops.
	updateEvery = 20
	// zipfS is kbload's default query-popularity skew.
	zipfS = 1.2
)

// server is one durable serve.Server as kbserve -data-dir runs it.
type server struct {
	dir   string
	store *kbtable.Store
	h     http.Handler
	d     int

	setup    time.Duration
	ckpt     kbtable.CheckpointStats
	recovery kbtable.RecoverStats
	index    kbtable.IndexStats
}

// startServer is kbserve -data-dir's set-up, timed from LoadGraph to a
// ready handler: seed a fresh data directory with a first checkpoint,
// then reopen it with OpenDir the way a restart does.
func startServer(c *corpus, dir string) (*server, error) {
	t0 := time.Now()
	g, err := kbtable.LoadGraph(c.path)
	if err != nil {
		return nil, err
	}
	_, st, _, err := kbtable.OpenDir(dir, kbtable.EngineOptions{})
	if !errors.Is(err, kbtable.ErrNoSnapshot) {
		if err == nil {
			st.Close()
			err = fmt.Errorf("data dir %s already holds a snapshot", dir)
		}
		return nil, err
	}
	eng, err := kbtable.NewEngine(g, kbtable.EngineOptions{})
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &server{dir: dir, index: eng.IndexStats(), d: eng.IndexStats().D}
	if s.ckpt, err = eng.Checkpoint(st); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	eng, s.store, s.recovery, err = kbtable.OpenDir(dir, kbtable.EngineOptions{})
	if err != nil {
		return nil, err
	}
	s.h = serve.New(serve.Config{Engine: eng, D: s.d, Store: s.store}).Handler()
	s.setup = time.Since(t0)
	return s, nil
}

// request builds a JSON request to the handler and its recorder.
func request(method, path string, body []byte) (*http.Request, *httptest.ResponseRecorder) {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return r, httptest.NewRecorder()
}

// do sends one request straight to the handler.
func do(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	r, w := request(method, path, body)
	h.ServeHTTP(w, r)
	return w
}

// serveOp is one prepared request of the op sequence.
type serveOp struct {
	update bool
	body   []byte
}

// serveRun is what one server's run through the op sequence measured.
type serveRun struct {
	searchLat, updateLat []time.Duration
	hits                 int
	acked                int
	search               searchLayers // cache misses only
	hitMS, missMS        mean
	overheadMS           mean // miss handler time minus elapsed_ms
	responseKB           mean
	invalidated          mean
	applyMS, updOverMS   mean
	dirty                mean
	walDeltas            []float64
}

// sender sends the op sequence to one server, one op per step.
// With rec set every op is a span tree: the handler call, and under it
// the engine time the response reports (stages on a cache miss, the
// update pipeline on a write).
type sender struct {
	o   *outcome
	s   *server
	rec *recorder
	r   serveRun
	wal int64
}

func newSender(o *outcome, s *server, rec *recorder) *sender {
	return &sender{o: o, s: s, rec: rec, wal: s.store.Stats().WALBytes}
}

// step sends op i; timed ops count towards the metrics.
func (sn *sender) step(i int, op serveOp, timed bool) {
	o, r, rec := sn.o, &sn.r, sn.rec
	o.attempted++
	path := "/v1/search"
	if op.update {
		path = "/v1/update"
	}
	req, w := request(http.MethodPost, path, op.body)
	var root, hs int
	if rec != nil {
		root = rec.open(i+1, 0, rootSpan)
		hs = rec.open(i+1, root, "serve.ServeHTTP")
	}
	t0 := time.Now()
	sn.s.h.ServeHTTP(w, req)
	d := time.Since(t0)
	if rec != nil {
		rec.close(hs)
		rec.close(root)
	}
	if w.Code != http.StatusOK {
		o.fail("op %d %s: status %d: %s", i, path, w.Code, w.Body.String())
		return
	}
	body := w.Body.Bytes()
	if op.update {
		var ur api.UpdateResponse
		if err := json.Unmarshal(body, &ur); err != nil {
			o.fail("op %d update: bad body: %v", i, err)
			return
		}
		r.acked++
		if ur.Epoch != uint64(r.acked) || len(ur.NewEntities) != 1 {
			o.fail("op %d update: epoch %d with %d new entities, want epoch %d with 1", i, ur.Epoch, len(ur.NewEntities), r.acked)
		}
		now := sn.s.store.Stats().WALBytes
		if now > sn.wal {
			r.walDeltas = append(r.walDeltas, float64(now-sn.wal))
		}
		sn.wal = now
		if rec != nil {
			h := rec.get(hs)
			rec.addStages(i+1, hs, h.Start, h.End, []string{"kbtable.ApplyLogged"}, []time.Duration{msDur(ur.ElapsedMS)})
		}
		if timed {
			r.updateLat = append(r.updateLat, d)
			r.applyMS.add(ur.ElapsedMS)
			r.updOverMS.add(ms(d) - ur.ElapsedMS)
			r.dirty.add(float64(ur.DirtyRoots))
			r.invalidated.add(float64(ur.InvalidatedCache))
		}
		return
	}
	var sr api.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		o.fail("op %d search: bad body: %v", i, err)
		return
	}
	if !sr.Cached && rec != nil && sr.Plan != nil {
		h := rec.get(hs)
		end := min(h.End, h.Start+int64(msDur(sr.ElapsedMS)))
		sp := rec.add(i+1, hs, "kbtable.SearchPlan", h.Start, end)
		rec.addStages(i+1, sp, h.Start, end, stageNames, planStages(sr.Plan))
	}
	if !timed {
		return
	}
	r.searchLat = append(r.searchLat, d)
	r.responseKB.add(float64(len(body)) / 1024)
	if sr.Cached {
		r.hits++
		r.hitMS.add(ms(d))
		return
	}
	r.missMS.add(ms(d))
	r.overheadMS.add(ms(d) - sr.ElapsedMS)
	if sr.Plan != nil {
		pi := kbtable.PlanInfo{BoundPruned: sr.Plan.BoundPruned}
		pi.Prepare, pi.Enumerate, pi.Aggregate, pi.Rank = msDur(sr.Plan.PrepareMS), msDur(sr.Plan.EnumerateMS), msDur(sr.Plan.AggregateMS), msDur(sr.Plan.RankMS)
		if sr.Plan.Algorithm == "linearenum" {
			pi.Algorithm = kbtable.LinearEnum
		}
		r.search.add(pi, msDur(sr.ElapsedMS))
	}
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func planStages(p *api.PlanOut) []time.Duration {
	return []time.Duration{msDur(p.PrepareMS), msDur(p.EnumerateMS), msDur(p.AggregateMS), msDur(p.RankMS)}
}

// health reads /v1/healthz.
func health(s *server) (*api.HealthResponse, error) {
	w := do(s.h, http.MethodGet, "/v1/healthz", nil)
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", w.Code)
	}
	var h api.HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return &h, nil
}

// quiesce waits until the server's background checkpoint, if one is
// running, has finished: the goroutine count returns to its value before
// the op sequence.
func quiesce(goroutines int) error {
	deadline := time.Now().Add(60 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			return errors.New("background checkpoint did not finish within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// runServe runs serve-mixed: Zipf-popular searches with one kbload-style
// update in every 20 ops, through a durable server's HTTP handler.
func runServe(p params, c *corpus) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(p.seed))
	total := p.warmup + p.ops
	nUpd := total / updateEvery
	draws := zipfDraws(rng, len(c.pool), total-nUpd, zipfS)
	updates := makeUpdates(rng, c.vocab, nUpd)
	ops := make([]serveOp, 0, total)
	for i := 0; i < total; i++ {
		var op serveOp
		var err error
		if i%updateEvery == updateEvery-1 {
			op.update = true
			op.body, err = json.Marshal(api.UpdateRequest{Ops: updates[0].Ops})
			updates = updates[1:]
		} else {
			op.body, err = json.Marshal(api.SearchRequest{Query: c.pool[draws[0]], K: p.k, MaxRows: p.maxRows})
			draws = draws[1:]
		}
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	sample := rng.Perm(len(c.pool))[:min(p.sample, len(c.pool))]

	var s *server
	var setups, ckptMS, recoverMS []float64
	for i := 0; i < p.setups; i++ {
		if s != nil {
			if err := s.store.Close(); err != nil {
				return nil, err
			}
			s = nil
		}
		runtime.GC()
		var err error
		if s, err = startServer(c, filepath.Join(p.dir, fmt.Sprintf("store-%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		ckptMS = append(ckptMS, ms(s.ckpt.Elapsed))
		recoverMS = append(recoverMS, ms(s.recovery.SnapshotLoad+s.recovery.Replay))
	}
	o.e2e["setup_s"] = median(setups)
	o.report["store.checkpoint_ms"] = median(ckptMS)
	o.report["store.recover_ms"] = median(recoverMS)
	o.layers["store.snapshot_mb"] = float64(s.ckpt.Bytes) / (1 << 20)
	indexLayers(o, s.index)

	// The traced run sends the same ops to a second, fresh server,
	// interleaved op by op with the untraced one, so that drift in the
	// host's speed falls on both sides of the tracing-overhead comparison.
	senders := []*sender{newSender(o, s, nil)}
	var rec *recorder
	if p.trace {
		t, err := startServer(c, filepath.Join(p.dir, "store-traced"))
		if err != nil {
			return nil, err
		}
		rec = newRecorder()
		senders = append(senders, newSender(o, t, rec))
	}
	base := runtime.NumGoroutine()
	for i, op := range ops {
		for _, sn := range senders {
			sn.step(i, op, i >= p.warmup)
		}
	}
	run := &senders[0].r
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	untraced := sum(run.searchLat) + sum(run.updateLat)
	o.e2e["peak_rss_mb"] = rss
	o.e2e["ops_s"] = float64(len(run.searchLat)+len(run.updateLat)) / untraced.Seconds()
	o.e2e["search_p50_ms"] = percentile(run.searchLat, 0.50)
	o.e2e["search_p99_ms"] = percentile(run.searchLat, 0.99)
	o.e2e["update_p50_ms"] = percentile(run.updateLat, 0.50)
	o.e2e["update_p90_ms"] = percentile(run.updateLat, 0.90)
	o.props["searches"] = len(run.searchLat)
	o.props["updates"] = len(run.updateLat)
	o.props["search_p99_beyond"] = beyond(len(run.searchLat), 0.99)
	o.props["update_p90_beyond"] = beyond(len(run.updateLat), 0.90)
	o.props["result_cache_hit_ratio"] = ratio(float64(run.hits), float64(len(run.searchLat)))
	o.props["top5_share"] = topShare(append(append([]time.Duration(nil), run.searchLat...), run.updateLat...))
	last := senders[len(senders)-1]
	if err := serveLayers(o, last.s, &last.r); err != nil {
		return nil, err
	}
	if err := quiesce(base); err != nil {
		return nil, err
	}
	if p.trace {
		if err := last.s.store.Close(); err != nil {
			return nil, err
		}
		// The untraced run timed only the ops after the warm-up; compare
		// the traced spans of the same ops.
		var spans []span
		for _, sp := range rec.spans {
			if sp.Req > p.warmup {
				spans = append(spans, sp)
			}
		}
		o.traceSummary(spans, p.ops, ms(untraced))
	}
	if err := checkDurable(o, s, c, sample, p, run.acked); err != nil {
		return nil, err
	}
	return o, nil
}

// serveLayers fills the per-layer metrics of one server's run.
func serveLayers(o *outcome, s *server, r *serveRun) error {
	h, err := health(s)
	if err != nil {
		return err
	}
	r.search.into(o)
	if pc := h.Planner.PlanCache; pc != nil {
		o.layers["search.plan_cache_hit_ratio"] = ratio(float64(pc.Hits), float64(pc.Hits+pc.Misses))
	}
	o.props["plan_cache_hit_ratio"] = o.layers["search.plan_cache_hit_ratio"]
	o.props["le_share"] = o.layers["search.le_share"]
	o.layers["serve.cache_hit_ratio"] = ratio(float64(r.hits), float64(len(r.searchLat)))
	o.layers["serve.response_kb"] = r.responseKB.value()
	o.layers["serve.invalidated_per_update"] = r.invalidated.value()
	o.layers["index.update_apply_ms"] = r.applyMS.value()
	o.layers["index.dirty_roots"] = r.dirty.value()
	o.layers["store.wal_bytes_per_update"] = median(r.walDeltas)
	if h.Durability != nil {
		o.layers["store.checkpoints"] = float64(h.Durability.Checkpoints)
	}
	o.report["serve.hit_ms"] = r.hitMS.value()
	o.report["serve.miss_ms"] = r.missMS.value()
	o.report["serve.overhead_ms"] = r.overheadMS.value()
	o.report["serve.update_overhead_ms"] = r.updOverMS.value()
	return nil
}

// checkDurable closes the live server's store, reopens the directory
// with OpenDir, and requires the recovered sequence to equal the
// acknowledged updates and a sample of queries to answer byte for byte
// as the live server did.
func checkDurable(o *outcome, s *server, c *corpus, sample []int, p params, acked int) error {
	type answers struct {
		Answers json.RawMessage `json:"answers"`
	}
	query := func(h http.Handler, qi int) ([]byte, error) {
		body, err := json.Marshal(api.SearchRequest{Query: c.pool[qi], K: p.k, MaxRows: p.maxRows})
		if err != nil {
			return nil, err
		}
		w := do(h, http.MethodPost, "/v1/search", body)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", w.Code, w.Body.String())
		}
		var a answers
		if err := json.Unmarshal(w.Body.Bytes(), &a); err != nil {
			return nil, err
		}
		return a.Answers, nil
	}
	live := make([][]byte, len(sample))
	for i, qi := range sample {
		var err error
		if live[i], err = query(s.h, qi); err != nil {
			return fmt.Errorf("live sample query %q: %w", c.pool[qi], err)
		}
	}
	if err := s.store.Close(); err != nil {
		return err
	}
	eng, st, rs, err := kbtable.OpenDir(s.dir, kbtable.EngineOptions{})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", s.dir, err)
	}
	defer st.Close()
	o.attempted++
	if rs.Seq != uint64(acked) {
		o.fail("restart recovered seq %d, want %d", rs.Seq, acked)
	}
	o.note(rs.Seq == uint64(acked), "restart recovered seq %d for %d acknowledged updates (snapshot seq %d + %d WAL records replayed)",
		rs.Seq, acked, rs.SnapshotSeq, rs.Replayed)
	re := serve.New(serve.Config{Engine: eng, D: s.d, Store: st, CheckpointEvery: -1}).Handler()
	same := 0
	for i, qi := range sample {
		o.attempted++
		got, err := query(re, qi)
		if err != nil {
			o.fail("restarted sample query %q: %v", c.pool[qi], err)
			continue
		}
		if bytes.Equal(got, live[i]) {
			same++
		} else {
			o.fail("restarted answers to %q differ from the live server's", c.pool[qi])
		}
	}
	o.note(same == len(sample), "restart answers %d of %d sample queries byte-identically", same, len(sample))
	return nil
}
