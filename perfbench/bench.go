package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	// Seconds is the length of each measured window.
	Seconds float64
	// Trace adds a traced window after the untraced one and makes the run
	// report per-layer instead of end-to-end metrics.
	Trace bool
	// Tiny shrinks every input for the smoke test.
	Tiny bool
	// TmpRoot holds the run's temporary directory, removed before return.
	TmpRoot string
	// TraceOut is where a traced run writes its spans ("" writes none).
	TraceOut string
	// Log receives the readable report (nil discards it).
	Log io.Writer
	// Listening, when set, is told the address of every loopback listener
	// the run opens.
	Listening func(addr string)
}

// workloads maps each --workload name to its driver.
var workloads = map[string]func(context.Context, *bench) error{
	"serve-hot":     runServeHot,
	"adhoc-cold":    runAdhocCold,
	"cluster-fetch": runClusterFetch,
	"maintain":      runMaintain,
}

// metricSpec names a metric BENCHMARK.json lists.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"throughput_qps", "queries/s"},
	{"accuracy_mean", "ratio"},
	{"eta_mean", "ratio"},
	{"eta_sound_share", "ratio"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload.
// Layer metrics that exist on only some workloads (serve.*, cluster.*,
// persist.*, access.apply_ms) are printed in the report instead.
var perLayer = []metricSpec{
	{"sqlparser.parse_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions_per_query", "1/query"},
	{"chase.plan_us", "us"},
	{"core.execute_us", "us"},
	{"core.combine_us", "us"},
	{"core.eta_refine_us", "us"},
	{"plan.fetch_step_us", "us"},
	{"plan.tuples_accessed", "tuples"},
	{"plan.budget_use", "ratio"},
	{"plan.truncated_queries", "count"},
	{"access.schema_build_s", "s"},
	{"access.index_entries", "count"},
	{"access.local_fetch_us", "us"},
	{"go.alloc_bytes_per_query", "bytes"},
	{"go.gc_cycles_per_1k_queries", "count"},
	{"obs.trace_overhead_pct", "%"},
}

// sizes fixes the make-up of every input. README.md documents the full
// values.
type sizes struct {
	// setupReps is how many set-ups setup_s is the median of; warmLoads
	// the same for maintain's cheaper warm loads.
	setupReps int
	warmLoads int
	slices    int
	// hotScale and hotQueries shape the TPCH pool shared by
	// serve-hot, cluster-fetch and maintain; hotOracleEvery is the stride
	// of its exact-oracle sample. The pool and its database are generated
	// from fixedSeed, whatever the run's seed.
	hotScale       int
	hotQueries     int
	hotOracleEvery int
	// coldScale and coldPerDataset shape adhoc-cold's three datasets;
	// coldOracleEvery is the stride of its exact-oracle sample, prime to
	// the pool's cycle of 3 datasets, 5 ratios and 10 classes so the
	// sample holds every combination.
	coldScale       int
	coldPerDataset  int
	coldOracleEvery int
	// batchOps and roundQueries shape one maintain round, an assumed write
	// mix (README.md, Inputs). roundQueries is prime to the pool size, so
	// every pool query in turn is the first to run after a write (and pays
	// for the garbage the write left).
	batchOps     int
	roundQueries int
	// probeRounds is how often the traced run's parse and plan probes pass
	// over the pool.
	probeRounds int
}

var fullSizes = sizes{
	setupReps: 7, warmLoads: 15, slices: 10,
	hotScale: 3, hotQueries: 128, hotOracleEvery: 1,
	coldScale: 2, coldPerDataset: 1024, coldOracleEvery: 7,
	batchOps: 16, roundQueries: 25,
	probeRounds: 5,
}

var tinySizes = sizes{
	setupReps: 2, warmLoads: 2, slices: 2,
	hotScale: 1, hotQueries: 16, hotOracleEvery: 4,
	coldScale: 1, coldPerDataset: 40, coldOracleEvery: 10,
	batchOps: 4, roundQueries: 4,
	probeRounds: 1,
}

// fixedSeed generates the TPCH database and query pool of the serve-hot,
// cluster-fetch and maintain workloads (the seed of the paper-figure
// harness). Their per-query costs are heavy-tailed, so a pool small enough
// for the plan cache would make throughput differ by a fifth from one
// seed's pool to the next; the run's seed orders the requests and draws
// the writes instead.
const fixedSeed = 2017

// clients is the number of closed-loop clients of the query workloads.
const clients = 2

// hotAlpha is the resource ratio of the TPCH pool's queries.
const hotAlpha = 0.08

// alphaGrid is the resource-ratio grid of the paper's Fig. 6.
var alphaGrid = []float64{0.005, 0.01, 0.02, 0.04, 0.08}

// bench is the state of one run: its inputs' sizes, the checks made so
// far, the operation counts and the metrics gathered.
type bench struct {
	cfg config
	sz  sizes
	tmp string
	chk checker
	ops []*opCount

	// cacheHits and cacheLookups count the plan-cache outcomes the traced
	// window's answers report.
	cacheHits, cacheLookups atomic.Int64
	// etaViolations describes the oracle sample's answers whose RC
	// accuracy is below their η.
	etaViolations []string

	e2e   map[string]float64
	layer map[string]float64
	// extra are workload-specific measurements printed in the report.
	extra []metric
}

// run executes the configured workload and gathers its result. An error
// means the run could not be made (bad flags, set-up failure, interrupt);
// failed checks are reported through result.Correct instead.
func run(ctx context.Context, cfg config) (*result, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want one of %v)", cfg.Workload, workloadNames())
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if err := os.MkdirAll(cfg.TmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.TmpRoot, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	b := &bench{cfg: cfg, sz: fullSizes, tmp: tmp, e2e: map[string]float64{}, layer: map[string]float64{}}
	size := "full"
	if cfg.Tiny {
		b.sz, size = tinySizes, "tiny"
	}
	b.printf("perfbench workload=%s seed=%d seconds=%g trace=%v size=%s GOMAXPROCS=%d NumCPU=%d %s",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, size, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if err := fn(ctx, b); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("interrupted: %w", err)
	}

	res := &result{}
	for _, op := range b.ops {
		a, f := op.attempted.Load(), op.failed.Load()
		b.printf("ops %-10s attempted=%d failed=%d", op.kind, a, f)
		if op.kind != opPeerRPC { // peer RPCs are parts of queries
			res.Attempted += int(a)
			res.Failed += int(f)
		}
	}
	// No operation of these workloads may fail; latencies are taken over
	// the answered queries only, so a failure must not pass unnoticed.
	if res.Failed > 0 {
		b.chk.failf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	res.Correct = b.chk.ok()
	b.chk.report(b)
	specs, got := endToEnd, b.e2e
	if cfg.Trace {
		specs, got = perLayer, b.layer
	}
	for _, s := range endToEnd {
		if v, ok := b.e2e[s.name]; ok {
			b.printf("e2e   %-28s %14.6f %s", s.name, v, s.unit)
		}
	}
	for _, m := range b.extra {
		b.printf("layer %-28s %14.6f %s", m.Name, m.Value, m.Unit)
	}
	for _, s := range specs {
		v, ok := got[s.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.Workload, s.name)
		}
		if cfg.Trace {
			b.printf("layer %-28s %14.6f %s", s.name, v, s.unit)
		}
		res.Metrics = append(res.Metrics, metric{Name: s.name, Unit: s.unit, Value: v})
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted no operation", cfg.Workload)
	}
	return res, nil
}

func (b *bench) printf(format string, args ...any) {
	fmt.Fprintf(b.cfg.Log, format+"\n", args...)
}

// setE2E records an end-to-end metric (listed in endToEnd).
func (b *bench) setE2E(name string, v float64) { b.e2e[name] = v }

// setLayer records a per-layer metric (listed in perLayer).
func (b *bench) setLayer(name string, v float64) { b.layer[name] = v }

// addExtra records a workload-specific per-layer measurement.
func (b *bench) addExtra(name, unit string, v float64) {
	b.extra = append(b.extra, metric{Name: name, Unit: unit, Value: v})
}

// Operation kinds counted per run.
const (
	opQuery      = "query"
	opApply      = "apply"
	opCheckpoint = "checkpoint"
	opPeerRPC    = "peer_rpc"
)

// opCount counts the operations of one kind attempted and failed in the
// warm-ups and measured windows.
type opCount struct {
	kind              string
	attempted, failed atomic.Int64
}

// opKind returns the counter of an operation kind, creating it on first
// use. Call it before any window starts: it is not safe for concurrent use.
func (b *bench) opKind(kind string) *opCount {
	for _, op := range b.ops {
		if op.kind == kind {
			return op
		}
	}
	op := &opCount{kind: kind}
	b.ops = append(b.ops, op)
	return op
}

// checker collects failed correctness checks. Safe for concurrent use.
type checker struct {
	mu     sync.Mutex
	n      int
	first  []string
	passed atomic.Int64
}

func (c *checker) pass() { c.passed.Add(1) }

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 20 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n == 0
}

func (c *checker) report(b *bench) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b.printf("checks passed=%d failed=%d", c.passed.Load(), c.n)
	for _, m := range c.first {
		b.printf("CHECK FAILED: %s", m)
	}
}

// window is one measured stretch of closed-loop traffic.
type window struct {
	// lat and done hold, per completed query, its latency and its
	// completion time since the window started.
	lat, done []time.Duration
	elapsed   time.Duration
	// allocBytes and gcCycles are the runtime's counters over the window.
	allocBytes, gcCycles uint64
	firstErr             error
}

func (w *window) queries() int { return len(w.lat) }

// sliceLatMS splits the window into equal time slices and returns, per
// slice, the latencies in ms of the queries that completed in it.
func (w *window) sliceLatMS(slices int) [][]float64 {
	if w.elapsed <= 0 || slices < 1 {
		return nil
	}
	per := w.elapsed / time.Duration(slices)
	out := make([][]float64, slices)
	for i, d := range w.done {
		k := min(int(d/per), slices-1)
		out[k] = append(out[k], float64(w.lat[i].Nanoseconds())/1e6)
	}
	return out
}

// sliceQPS is the queries completed per second in each of equal time
// slices of the window.
func (w *window) sliceQPS(slices int) []float64 {
	per := w.elapsed.Seconds() / float64(slices)
	var qps []float64
	for _, lat := range w.sliceLatMS(slices) {
		qps = append(qps, float64(len(lat))/per)
	}
	return qps
}

// qps is the median of sliceQPS: one stalled slice does not move it.
func (w *window) qps(slices int) float64 { return median(w.sliceQPS(slices)) }

// percentileMS is the median over equal time slices of the window of each
// slice's q-quantile latency in ms. A few seconds in which the host's other
// work slows every query move the quantile of the slices they fall in, not
// the median over slices.
func (w *window) percentileMS(q float64, slices int) float64 {
	var qs []float64
	for _, lat := range w.sliceLatMS(slices) {
		if len(lat) > 0 {
			qs = append(qs, quantile(lat, q))
		}
	}
	return median(qs)
}

// setLatencyMetrics records the end-to-end query metrics of an untraced
// window.
func (b *bench) setLatencyMetrics(w *window) {
	b.setE2E("query_p50_ms", w.percentileMS(0.50, b.sz.slices))
	b.setE2E("query_p99_ms", w.percentileMS(0.99, b.sz.slices))
	b.setE2E("throughput_qps", w.qps(b.sz.slices))
	b.printf("window queries=%d elapsed=%.3fs slice_qps=%s", w.queries(), w.elapsed.Seconds(), joinf(w.sliceQPS(b.sz.slices)))
	if n := w.queries(); n < 1000 {
		b.printf("note: p99 rests on %d queries (fewer than 1000)", n)
	}
	if w.firstErr != nil {
		b.printf("first failed operation: %v", w.firstErr)
	}
	b.setLayer("go.alloc_bytes_per_query", float64(w.allocBytes)/math.Max(1, float64(w.queries())))
	b.setLayer("go.gc_cycles_per_1k_queries", float64(w.gcCycles)*1000/math.Max(1, float64(w.queries())))
}

// setOverhead records the traced window's cost against the untraced one,
// as the relative loss of throughput.
func (b *bench) setOverhead(plain, traced *window) {
	p, t := plain.qps(b.sz.slices), traced.qps(b.sz.slices)
	pct := 0.0
	if t > 0 {
		pct = (p/t - 1) * 100
	}
	b.setLayer("obs.trace_overhead_pct", pct)
	b.printf("traced window queries=%d qps=%.1f (untraced %.1f)", traced.queries(), t, p)
}

// closedLoop runs clients workers for d. Each worker sends its next
// operation only when the previous one returned. op receives the worker
// and a run-wide operation index.
func closedLoop(ctx context.Context, clients int, d time.Duration, kind *opCount, op func(ctx context.Context, client, i int) error) *window {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
		w       = &window{}
		a0, gc0 = runtimeCounters()
		start   = time.Now()
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat, done []time.Duration
			var firstErr error
			for ctx.Err() == nil && time.Since(start) < d {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				kind.attempted.Add(1)
				if err := op(ctx, c, i); err != nil {
					kind.failed.Add(1)
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				t1 := time.Now()
				lat = append(lat, t1.Sub(t0))
				done = append(done, t1.Sub(start))
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			w.done = append(w.done, done...)
			if w.firstErr == nil {
				w.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	a1, gc1 := runtimeCounters()
	w.allocBytes, w.gcCycles = a1-a0, gc1-gc0
	return w
}

// runtimeCounters reads the cumulative heap allocation and GC cycle
// counts.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timeSetup runs setup reps times, tearing down every instance but the
// last, and returns the last instance with the median duration of a
// set-up.
func timeSetup[T any](ctx context.Context, reps int, setup func(context.Context) (T, error), teardown func(T)) (T, float64, error) {
	var (
		cur   T
		durs  []float64
		have  bool
		empty T
	)
	for r := 0; r < reps; r++ {
		if have {
			teardown(cur)
			have = false
		}
		runtime.GC() // the previous instance's garbage is not this set-up's cost
		t0 := time.Now()
		inst, err := setup(ctx)
		if err != nil {
			return empty, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		cur, have = inst, true
	}
	return cur, median(durs), nil
}

// median returns the middle value (mean of the two middle ones), 0 when
// empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics, 0 when xs is empty. It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// joinf formats a list of floats for the report.
func joinf(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, ",")
}
