// Command kbperf is the repository's benchmark. One run generates its
// inputs from --seed, runs one workload through the kbtable library in
// a closed loop with a single client, checks every answer, and prints
// its metrics as the last line of standard output:
//
//	{"correct":true,"attempted":2510,"failed":0,"metrics":{"ops_s":{"value":251.3,"unit":"1/s"},...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with spans recorded around every call into a layer and reports
// the per-layer metrics, the layer table and the tracing overhead
// (standard error), and writes the spans to a JSON-lines file. See
// README.md for the workloads and what each one bypasses.
//
// Usage, from the repository root:
//
//	bash kbperf/run.sh --workload query-cold --seed 1 --seconds 12 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Workload names.
const (
	queryCold    = "query-cold"
	querySharded = "query-sharded"
	serveMixed   = "serve-mixed"
)

// e2eUnits are the end-to-end metrics every workload reports untraced.
var e2eUnits = map[string]string{
	"setup_s":       "s",
	"ops_s":         "1/s",
	"search_p50_ms": "ms",
	"search_p99_ms": "ms",
	"update_p50_ms": "ms",
	"update_p90_ms": "ms",
	"peak_rss_mb":   "MB",
}

// layerUnits are the per-layer metrics every workload reports traced. A
// layer a workload bypasses reads 0 in its counts and ratios. Times of
// layers only one workload reaches (shard legs, the serve handler, the
// store, the planner probe) are not here: they go to the traced run's
// report, because a bypassed layer has no time to report.
var layerUnits = map[string]string{
	"search.prepare_ms":            "ms",
	"search.enumerate_ms":          "ms",
	"search.aggregate_ms":          "ms",
	"search.rank_ms":               "ms",
	"kbtable.materialize_ms":       "ms",
	"search.bound_pruned":          "count",
	"search.le_share":              "ratio",
	"search.plan_cache_hit_ratio":  "ratio",
	"shard.partial_patterns":       "count",
	"shard.useful_ratio":           "ratio",
	"serve.cache_hit_ratio":        "ratio",
	"serve.response_kb":            "KB",
	"serve.invalidated_per_update": "count",
	"index.update_apply_ms":        "ms",
	"index.dirty_roots":            "count",
	"store.snapshot_mb":            "MB",
	"store.checkpoints":            "count",
	"store.wal_bytes_per_update":   "B",
	"index.build_s":                "s",
	"index.mb":                     "MB",
	"index.entries":                "count",
	"trace.overhead_pct":           "%",
	"trace.layer_sum_ratio":        "ratio",
}

// layerSumTolerance bounds |layer-sum ratio − 1| for the layer-sum check.
const layerSumTolerance = 0.10

// params sizes one run. benchParams gives the benchmark's scale; tests
// shrink it.
type params struct {
	workload string
	seed     int64
	trace    bool
	dir      string // scratch directory for the corpus and stores

	entities, types int // SynthWiki size
	perM, maxM      int // query pool: perM queries for each keyword count 1..maxM
	k, maxRows      int
	setups          int // set-ups per run; setup_s is their median
	warmup          int // untimed queries (query-*) or ops (serve-mixed) first
	passes          int // query-*: timed passes over the pool
	updates         int // query-*: library updates after the passes
	ops             int // serve-mixed: timed ops
	sample          int // serve-mixed: queries compared after restart
}

// benchParams sizes the work of one run from --seconds. The work is fixed
// for a given --seconds, not the time: a faster program finishes sooner
// rather than running more (and different) operations. On a 2-vCPU x86
// host one query-cold pass takes about 3.3 s, one query-sharded pass
// about 12 s, and serve-mixed runs about 200 ops/s.
func benchParams(workload string, seed int64, seconds int, trace bool, dir string) params {
	p := params{
		workload: workload, seed: seed, trace: trace, dir: dir,
		entities: 4000, types: 60, perM: 200, maxM: 4, k: 10, maxRows: 50,
		setups: 7, warmup: 50, updates: 105, sample: 40,
	}
	switch workload {
	case queryCold:
		p.passes = max(2, int(float64(seconds)/3.3+0.5))
	case querySharded:
		p.passes = max(2, int(float64(seconds)/12+0.5))
	case serveMixed:
		// 20 ops in a cycle hold one update, and update_p90_ms needs ten
		// samples beyond it: at least 2000 timed ops.
		p.warmup = 200
		p.ops = max(2000, 200*seconds)
	}
	return p
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layers            map[string]float64 // per-layer metrics (layerUnits)
	report            map[string]float64 // workload-specific layer times, report only
	props             map[string]any     // workload properties and host
	spans             []span
	table             string // rendered layer table
	checks            []string
}

func newOutcome() *outcome {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]float64{}, props: map[string]any{}}
	for name := range layerUnits {
		o.layers[name] = 0
	}
	return o
}

// fail counts one failed or wrong operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// note records the outcome of a post-run check for the report. Callers
// count the failed operations themselves.
func (o *outcome) note(ok bool, format string, args ...any) {
	o.checks = append(o.checks, passFail(ok)+" "+fmt.Sprintf(format, args...))
}

// traceSummary fills the tracing metrics from the traced spans and the
// untraced end-to-end time of the same operations.
func (o *outcome) traceSummary(spans []span, ops int, untraced float64) {
	rows := layerTable(spans)
	var root layer
	for _, r := range rows {
		if r.Name == rootSpan {
			root = r
		}
	}
	traced, layers := ms(root.Total), ms(root.Total-root.Self)
	o.spans = spans
	o.table = renderLayers(rows, ops)
	o.layers["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	sumRatio := layers / untraced
	o.layers["trace.layer_sum_ratio"] = sumRatio
	o.note(sumRatio >= 1-layerSumTolerance && sumRatio <= 1+layerSumTolerance,
		"layer-sum: layers %.1f ms vs untraced end-to-end %.1f ms, ratio %.3f, tolerance ±%.0f%%", layers, untraced, sumRatio, 100*layerSumTolerance)
}

// rootSpan names the span around one benchmark operation; its self time
// is the harness's own share.
const rootSpan = "bench.op"

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// stealSeconds reads the host's total steal time from /proc/stat (in
// USER_HZ ticks, 100 per second); 0 where it is unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload generates the inputs and runs one workload.
func runWorkload(p params) (*outcome, error) {
	runners := map[string]func(params, *corpus) (*outcome, error){
		queryCold:    func(p params, c *corpus) (*outcome, error) { return runQuery(p, c, 1) },
		querySharded: func(p params, c *corpus) (*outcome, error) { return runQuery(p, c, 2) },
		serveMixed:   runServe,
	}
	runner, ok := runners[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", p.workload, queryCold, querySharded, serveMixed)
	}
	c, err := makeCorpus(p)
	if err != nil {
		return nil, err
	}
	steal0 := stealSeconds()
	o, err := runner(p, c)
	if err != nil {
		return nil, err
	}
	// Time the hypervisor ran other guests on this host's vCPUs during the
	// run, summed over vCPUs: a slow run with steal was slowed from outside.
	o.props["host_steal_s"] = math.Round((stealSeconds()-steal0)*100) / 100
	o.props["workload"] = p.workload
	o.props["seed"] = p.seed
	o.props["nodes"] = c.nodes
	o.props["edges"] = c.edges
	o.props["pool"] = len(c.pool)
	o.props["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.props["nproc"] = runtime.NumCPU()
	o.props["go_version"] = runtime.Version()
	return o, nil
}

// resultOf assembles the final JSON line.
func resultOf(o *outcome, trace bool) result {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if trace {
		for name, unit := range layerUnits {
			r.Metrics[name] = metricValue{o.layers[name], unit}
		}
	} else {
		for name, unit := range e2eUnits {
			r.Metrics[name] = metricValue{o.e2e[name], unit}
		}
	}
	return r
}

// printReport writes the human-readable report to standard error.
func printReport(o *outcome, trace bool) {
	w := os.Stderr
	props, _ := json.Marshal(o.props)
	fmt.Fprintf(w, "properties %s\n", props)
	section := func(title string, m map[string]float64) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-30s %14.4f\n", n, m[n])
		}
	}
	section("end-to-end", o.e2e)
	if trace {
		section("per-layer", o.layers)
		section("per-layer (this workload only)", o.report)
		fmt.Fprint(w, o.table)
	}
	for _, c := range o.checks {
		fmt.Fprintln(w, c)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "problem:", p)
	}
	fmt.Fprintf(w, "failed_share %.6f (%d of %d)\n", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
}

func main() {
	workload := flag.String("workload", "", "workload: query-cold, query-sharded or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "sizes the timed work (see benchParams)")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "kbperf"), "directory for scratch files, traces and run records")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "kbperf: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "kbperf:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(out, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	p := benchParams(workload, seed, seconds, trace, work)
	o, err := runWorkload(p)
	if err != nil {
		return err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, map[bool]int{false: 0, true: 1}[trace]))
	if trace {
		if err := writeTraceFile(base+".spans.jsonl", o.spans); err != nil {
			return err
		}
	}
	res := resultOf(o, trace)
	record, err := json.MarshalIndent(map[string]any{
		"properties": o.props, "end_to_end": o.e2e, "per_layer": o.layers, "report_only": o.report,
		"checks": o.checks, "problems": o.problems, "result": res,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", record, 0o644); err != nil {
		return err
	}
	printReport(o, trace)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
