package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	beas "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// window is the length of a measured window; warmup, run before each
// one, lets the heap, the connection pools and the caches settle.
func (b *bench) window() time.Duration {
	return time.Duration(b.cfg.Seconds * float64(time.Second))
}

func (b *bench) warmup() time.Duration { return min(2*time.Second, b.window()/5) }

// printPool describes a workload's query pool in the report.
func (b *bench) printPool(name string, dbSize int, pool []*poolQuery) {
	classes := map[string]int{}
	for _, pq := range pool {
		classes[pq.class]++
	}
	b.printf("inputs %s |D|=%d queries=%d SPC=%d RA=%d agg=%d", name, dbSize, len(pool), classes["SPC"], classes["RA"], classes["agg"])
}

// ---------------------------------------------------------------------
// serve-hot and cluster-fetch: the TPCH pool over HTTP.

func runServeHot(ctx context.Context, b *bench) error { return runHTTPWorkload(ctx, b, 1) }

func runClusterFetch(ctx context.Context, b *bench) error { return runHTTPWorkload(ctx, b, 3) }

// frontEnd is the serving stack under test: one System behind a
// serve.Server on a loopback listener, and for a cluster the peer nodes
// with their own listeners.
type frontEnd struct {
	sys     *beas.System
	srv     *serve.Server
	servers []*loopServer
	nodes   []*cluster.Node
	th      *tracedHandler
	client  *httpClient
	rpc     *countingTransport // coordinator RPCs; nil without a cluster
	buildS  float64
}

func (f *frontEnd) close() {
	if f.client != nil {
		f.client.close()
	}
	for _, s := range f.servers {
		s.close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
	for _, n := range f.nodes {
		n.Close()
	}
}

// startFrontEnd builds the access schema and brings up the serving stack
// with the given node count, returning once /healthz answers.
func startFrontEnd(ctx context.Context, b *bench, d *workload.Dataset, nodes int) (f *frontEnd, err error) {
	t0 := time.Now()
	as, err := d.AccessSchema()
	if err != nil {
		return nil, fmt.Errorf("build access schema: %w", err)
	}
	f = &frontEnd{sys: beas.Open(d.DB, as), buildS: time.Since(t0).Seconds()}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	quiet, err := obs.NewLogger(io.Discard, "text")
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		System:       f.sys,
		DefaultAlpha: hotAlpha,
		Dataset:      "tpch",
		DBSize:       d.DB.Size(),
		Relations:    len(d.DB.Names()),
		Shards:       1,
		// Every request runs at the α it asked for: no brownout, and no
		// admission cap.
		BudgetCap: math.MaxInt,
		Brownout:  serve.BrownoutConfig{Mode: "off"},
		Logger:    quiet,
	}
	var swaps []*handlerSwap
	if nodes > 1 {
		members := map[string]string{}
		for i := 0; i < nodes; i++ {
			hs := &handlerSwap{}
			ls, err := startServer(hs, b.cfg.Listening)
			if err != nil {
				return nil, err
			}
			swaps = append(swaps, hs)
			f.servers = append(f.servers, ls)
			members["node-"+strconv.Itoa(i)] = ls.URL
		}
		f.rpc = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 16}}
		for i := 0; i < nodes; i++ {
			cc := cluster.Config{NodeID: "node-" + strconv.Itoa(i), Peers: members, Schema: as}
			if i == 0 {
				cc.Client = &http.Client{Transport: f.rpc}
			}
			n, err := cluster.New(cc)
			if err != nil {
				return nil, err
			}
			f.nodes = append(f.nodes, n)
		}
		cfg.ExecOptions = []beas.Option{beas.WithRemoteFetcher(f.nodes[0].Fetcher())}
		cfg.Cluster = f.nodes[0]
	}
	if f.srv, err = serve.New(cfg); err != nil {
		return nil, err
	}
	f.th = &tracedHandler{next: f.srv.Handler()}
	if nodes > 1 {
		swaps[0].set(f.th)
		for i := 1; i < nodes; i++ {
			swaps[i].set(f.nodes[i].Handler())
		}
	} else {
		ls, err := startServer(f.th, b.cfg.Listening)
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, ls)
	}
	f.client = newHTTPClient(f.servers[0].URL, 2*clients)
	if err := f.client.waitHealthy(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// xsCounts reads the coordinator's local and remote X-value counters.
func (f *frontEnd) xsCounts() (local, remote float64) {
	if len(f.nodes) == 0 {
		return 0, 0
	}
	st := f.nodes[0].Stats()
	l, _ := st["local_xs"].(uint64)
	r, _ := st["remote_xs"].(uint64)
	return float64(l), float64(r)
}

// compareHTTP checks an HTTP answer against the library's answer to the
// same query: same rows (the response carries at most the server's row
// cap), η, exactness and access count, served at the α asked for.
func (b *bench) compareHTTP(pq *poolQuery, resp *serve.QueryResponse) {
	ref := pq.ref
	ok := resp.Rows == len(ref.rows) && resp.Eta == ref.eta && resp.Exact == ref.exact &&
		resp.Accessed == ref.accessed && !resp.Degraded && resp.Alpha == pq.alpha &&
		len(resp.Tuples) <= len(ref.rows) && resp.Truncated == (len(resp.Tuples) < len(ref.rows))
	for j := 0; ok && j < len(resp.Tuples); j++ {
		got, want := resp.Tuples[j], ref.rows[j]
		ok = len(got) == len(want)
		for k := 0; ok && k < len(got); k++ {
			ok = got[k] == want[k]
		}
	}
	if !ok {
		b.chk.failf("HTTP answer (rows %d eta %v accessed %d) differs from the library's (rows %d eta %v accessed %d): %s",
			resp.Rows, resp.Eta, resp.Accessed, len(ref.rows), ref.eta, ref.accessed, pq.sql)
		return
	}
	b.chk.pass()
}

// hotPool generates the TPCH database and query pool shared by serve-hot,
// cluster-fetch and maintain. The traffic walks the pool in an order drawn
// from the run's seed; the checks take the pool in generation order.
func (b *bench) hotPool() (*workload.Dataset, []*poolQuery, []*poolQuery, error) {
	d := workload.TPCH(b.sz.hotScale, fixedSeed)
	pool, err := genPool(d, b.sz.hotQueries, fixedSeed, []float64{hotAlpha})
	if err != nil {
		return nil, nil, nil, err
	}
	order := append([]*poolQuery(nil), pool...)
	rand.New(rand.NewSource(b.cfg.Seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	b.printPool("tpch", d.DB.Size(), pool)
	return d, pool, order, nil
}

// runHTTPWorkload is serve-hot (nodes = 1) and cluster-fetch (nodes = 3):
// two closed-loop clients POST the TPCH pool to /query.
func runHTTPWorkload(ctx context.Context, b *bench, nodes int) error {
	d, pool, order, err := b.hotPool()
	if err != nil {
		return err
	}
	var builds []float64
	f, setupS, err := timeSetup(ctx, b.sz.setupReps, func(ctx context.Context) (*frontEnd, error) {
		f, err := startFrontEnd(ctx, b, d, nodes)
		if err == nil {
			builds = append(builds, f.buildS)
		}
		return f, err
	}, (*frontEnd).close)
	if err != nil {
		return err
	}
	defer f.close()
	b.setE2E("setup_s", setupS)
	b.setE2E("heap_live_mb", liveHeapMB())
	b.printf("setup runs=%d median=%.4fs builds=%s", len(builds), setupS, joinf(builds))

	bodies := map[*poolQuery][]byte{}
	for _, pq := range pool {
		pq.sys = f.sys
		if bodies[pq], err = json.Marshal(serve.QueryRequest{SQL: pq.sql, Alpha: pq.alpha}); err != nil {
			return err
		}
	}
	if err := b.setReferences(ctx, pool); err != nil {
		return err
	}
	for _, pq := range pool {
		resp, err := f.client.query(ctx, bodies[pq], nil)
		if err != nil {
			return fmt.Errorf("reference pass over HTTP: %w", err)
		}
		b.compareHTTP(pq, resp)
	}
	sample, err := b.oracleSample(ctx, pool, b.sz.hotOracleEvery)
	if err != nil {
		return err
	}
	b.setQuality(sample, pool)

	dbSize := d.DB.Size()
	queryOp := b.opKind(opQuery)
	if f.rpc != nil {
		f.rpc.op.Store(b.opKind(opPeerRPC))
	}
	httpOp := func(rec *recorder) func(context.Context, int, int) error {
		return func(ctx context.Context, _, i int) error {
			pq := order[i%len(order)]
			sp := rec.root("http")
			resp, err := f.client.query(ctx, bodies[pq], sp)
			if err != nil {
				sp.end(nil)
				return err
			}
			sp.set("served_us", resp.ServedMS*1e3)
			sp.end(resp.Trace)
			if rec != nil {
				b.countCache(resp.CacheHit)
			}
			b.checkAnswer(pq, resp.Eta, resp.Exact, resp.Accessed, resp.Rows, dbSize)
			return nil
		}
	}

	closedLoop(ctx, clients, b.warmup(), queryOp, httpOp(nil))
	rpc0, bytes0, durs0 := f.rpcSnapshot()
	local0, remote0 := f.xsCounts()
	plain := closedLoop(ctx, clients, b.window(), queryOp, httpOp(nil))
	b.setLatencyMetrics(plain)
	if f.rpc != nil {
		rpc1, bytes1, durs1 := f.rpcSnapshot()
		local1, remote1 := f.xsCounts()
		q := math.Max(1, float64(plain.queries()))
		b.addExtra("cluster.rpc_per_query", "count", float64(rpc1-rpc0)/q)
		b.addExtra("cluster.rpc_us", "us", median(durs1[len(durs0):]))
		b.addExtra("cluster.rpc_bytes_per_query", "bytes", float64(bytes1-bytes0)/q)
		b.addExtra("cluster.remote_x_share", "ratio", (remote1-remote0)/math.Max(1, local1-local0+remote1-remote0))
	}
	if !b.cfg.Trace {
		return nil
	}

	closedLoop(ctx, clients, b.warmup(), queryOp, httpOp(nil))
	rec := newRecorder()
	f.th.rec.Store(rec)
	if f.rpc != nil {
		f.rpc.tracing.Store(true)
	}
	pc0 := f.sys.PlanCacheStats()
	traced := closedLoop(ctx, clients, b.window(), queryOp, httpOp(rec))
	pc1 := f.sys.PlanCacheStats()
	f.th.rec.Store(nil)
	if f.rpc != nil {
		f.rpc.tracing.Store(false)
		f.rpc.op.Store(nil)
	}
	if err := b.probes(ctx, rec, pool); err != nil {
		return err
	}
	st := b.finishTrace(rec)
	b.setOverhead(plain, traced)
	b.setEvictions([]beas.PlanCacheStats{pc0}, []beas.PlanCacheStats{pc1}, traced)
	b.setLayer("sqlparser.parse_us", medianOf(st.bench, "probe.parse"))
	b.setLayer("chase.plan_us", medianOf(st.bench, "probe.plan"))
	b.setPoolLayerMetrics(pool)
	b.setLayer("access.schema_build_s", median(builds))
	b.setLayer("access.index_entries", float64(schemaEntries(f.sys)))
	b.addExtra("serve.handler_us", "us", median(st.handler))
	b.addExtra("serve.engine_us", "us", median(st.engine))
	b.addExtra("serve.codec_us", "us", median(st.codec))
	b.addExtra("serve.transport_us", "us", median(st.transport))
	return nil
}

func (f *frontEnd) rpcSnapshot() (int64, int64, []float64) {
	if f.rpc == nil {
		return 0, 0, nil
	}
	return f.rpc.snapshot()
}

// countCache counts one traced answer's plan-cache outcome.
func (b *bench) countCache(hit bool) {
	b.cacheLookups.Add(1)
	if hit {
		b.cacheHits.Add(1)
	}
}

// setEvictions records the plan-cache evictions per query of the traced
// window w, from the cache counters (one set per system) around it. A write
// empties the cache and restarts its counters, so a counter that went down
// counts from zero.
func (b *bench) setEvictions(before, after []beas.PlanCacheStats, w *window) {
	var evictions uint64
	for i := range before {
		if after[i].Evictions >= before[i].Evictions {
			evictions += after[i].Evictions - before[i].Evictions
		} else {
			evictions += after[i].Evictions
		}
	}
	b.setLayer("plancache.evictions_per_query", float64(evictions)/math.Max(1, float64(w.queries())))
}

// probes times, with spans of their own, the parser and the uncached
// planner over the pool, and the access layer's batched fetch over every
// ladder of the pool's systems: 16 X-values drawn from the ladder's
// groups, fetched at each level by one worker.
func (b *bench) probes(ctx context.Context, rec *recorder, pool []*poolQuery) error {
	var systems []*beas.System
	seen := map[*beas.System]bool{}
	for _, pq := range pool {
		if !seen[pq.sys] {
			seen[pq.sys] = true
			systems = append(systems, pq.sys)
		}
	}
	rng := rand.New(rand.NewSource(b.cfg.Seed))
	for r := 0; r < b.sz.probeRounds; r++ {
		for _, sys := range systems {
			for _, l := range sys.Scheme().Access().Ladders {
				xs := l.GroupXs()
				if len(xs) == 0 {
					continue
				}
				batch := make([]beas.Tuple, 16)
				for i := range batch {
					batch[i] = xs[rng.Intn(len(xs))]
				}
				for k := 0; k <= l.MaxK(); k++ {
					sp := rec.root("probe.fetch")
					l.FetchBatchBlocks(batch, k, 1)
					sp.end(nil)
				}
			}
		}
	}
	for r := 0; r < b.sz.probeRounds; r++ {
		for _, pq := range pool {
			sp := rec.root("probe.parse")
			_, err := beas.ParseSQL(pq.sql)
			sp.end(nil)
			if err != nil {
				return fmt.Errorf("parse probe: %w", err)
			}
			sp = rec.root("probe.plan")
			_, err = pq.sys.Plan(ctx, pq.q, beas.WithAlpha(pq.alpha), beas.WithCacheBypass())
			sp.end(nil)
			if err != nil {
				return fmt.Errorf("plan probe: %w", err)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Library queries, shared by adhoc-cold and maintain.

// libraryQuery issues one pool query as SQL through the library and checks
// the answer (against the reference answer, once one is set). With a
// recorder it parses and queries as two calls inside a "query" span and
// attaches the program's span tree.
func (b *bench) libraryQuery(ctx context.Context, rec *recorder, pq *poolQuery) (*beas.Answer, error) {
	var (
		ans *beas.Answer
		err error
	)
	if rec == nil {
		ans, _, err = pq.sys.QuerySQL(ctx, pq.sql, beas.WithAlpha(pq.alpha))
	} else {
		sp := rec.root("query")
		ps := sp.child("parse")
		q, perr := beas.ParseSQL(pq.sql)
		ps.end(nil)
		if perr != nil {
			sp.end(nil)
			return nil, perr
		}
		tr := beas.NewTrace()
		var p *beas.Plan
		ans, p, err = pq.sys.Query(ctx, q, beas.WithAlpha(pq.alpha), beas.WithTrace(tr))
		tree := tr.JSON()
		sp.end(&tree)
		if err == nil {
			b.countCache(p.CacheHit)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s query at alpha %g: %w: %s", pq.dataset, pq.alpha, err, pq.sql)
	}
	b.checkAnswer(pq, ans.Eta, ans.Exact, ans.Stats.Accessed, ans.Rel.Len(), pq.sys.Scheme().DB().Size())
	return ans, nil
}

// ---------------------------------------------------------------------
// adhoc-cold: distinct generated queries over three datasets.

func runAdhocCold(ctx context.Context, b *bench) error {
	gens := []func(int, int64) *workload.Dataset{workload.TPCH, workload.TFACC, workload.AIRCA}
	var (
		sets  []*workload.Dataset
		pools [][]*poolQuery
	)
	for k, gen := range gens {
		d := gen(b.sz.coldScale, b.cfg.Seed+int64(k))
		p, err := genPool(d, b.sz.coldPerDataset, b.cfg.Seed+int64(k), alphaGrid)
		if err != nil {
			return err
		}
		b.printPool(d.Name, d.DB.Size(), p)
		sets = append(sets, d)
		pools = append(pools, p)
	}
	// Interleave the datasets so consecutive queries hit different systems.
	var pool []*poolQuery
	for i := 0; ; i++ {
		added := false
		for _, p := range pools {
			if i < len(p) {
				pool = append(pool, p[i])
				added = true
			}
		}
		if !added {
			break
		}
	}

	var builds []float64
	systems, setupS, err := timeSetup(ctx, b.sz.setupReps, func(ctx context.Context) ([]*beas.System, error) {
		t0 := time.Now()
		var out []*beas.System
		for _, d := range sets {
			as, err := d.AccessSchema()
			if err != nil {
				return nil, fmt.Errorf("build %s access schema: %w", d.Name, err)
			}
			out = append(out, beas.Open(d.DB, as))
		}
		builds = append(builds, time.Since(t0).Seconds())
		return out, nil
	}, func([]*beas.System) {})
	if err != nil {
		return err
	}
	b.setE2E("setup_s", setupS)
	b.setE2E("heap_live_mb", liveHeapMB())
	b.printf("setup runs=%d median=%.4fs", len(builds), setupS)
	for k, p := range pools {
		for _, pq := range p {
			pq.sys = systems[k]
		}
	}
	if err := b.setReferences(ctx, pool); err != nil {
		return err
	}
	every := b.sz.coldOracleEvery
	if b.cfg.Trace {
		every = 1 // the quality breakdown wants every query
	}
	sample, err := b.oracleSample(ctx, pool, every)
	if err != nil {
		return err
	}
	b.setQuality(sample, pool)
	if b.cfg.Trace {
		b.printBreakdown(sample)
	}

	queryOp := b.opKind(opQuery)
	libOp := func(rec *recorder) func(context.Context, int, int) error {
		return func(ctx context.Context, _, i int) error {
			_, err := b.libraryQuery(ctx, rec, pool[i%len(pool)])
			return err
		}
	}
	closedLoop(ctx, clients, b.warmup(), queryOp, libOp(nil))
	plain := closedLoop(ctx, clients, b.window(), queryOp, libOp(nil))
	b.setLatencyMetrics(plain)
	if !b.cfg.Trace {
		return nil
	}
	closedLoop(ctx, clients, b.warmup(), queryOp, libOp(nil))
	rec := newRecorder()
	pc0 := cacheStats(systems)
	traced := closedLoop(ctx, clients, b.window(), queryOp, libOp(rec))
	pc1 := cacheStats(systems)
	if err := b.probes(ctx, rec, pool); err != nil {
		return err
	}
	st := b.finishTrace(rec)
	b.setOverhead(plain, traced)
	b.setEvictions(pc0, pc1, traced)
	b.setLayer("sqlparser.parse_us", medianOf(st.bench, "parse"))
	b.setLayer("chase.plan_us", medianOf(st.bench, "probe.plan"))
	b.setPoolLayerMetrics(pool)
	b.setLayer("access.schema_build_s", median(builds))
	entries := 0
	for _, s := range systems {
		entries += schemaEntries(s)
	}
	b.setLayer("access.index_entries", float64(entries))
	return nil
}

func cacheStats(systems []*beas.System) []beas.PlanCacheStats {
	out := make([]beas.PlanCacheStats, len(systems))
	for i, s := range systems {
		out[i] = s.PlanCacheStats()
	}
	return out
}

// ---------------------------------------------------------------------
// maintain: WAL-logged write batches beside reads, from a warm start.

// writeGen makes the maintain workload's write batches: inserts of new
// lineitem rows and as many deletes, of rows the database held at the start
// and then of rows inserted since, each deleted once, so every operation
// applies. |D| stays at its start size, so the cost of a round does not
// depend on how many rounds the host managed before it.
type writeGen struct {
	rng                 *rand.Rand
	victims             []beas.Tuple
	orders, parts, supp int
}

func newWriteGen(db *beas.Database, seed int64) (*writeGen, error) {
	var rels [4]*beas.Relation
	for i, name := range []string{"lineitem", "orders", "part", "supplier"} {
		r, ok := db.Relation(name)
		if !ok {
			return nil, fmt.Errorf("maintain: no relation %s", name)
		}
		rels[i] = r
	}
	li := rels[0]
	g := &writeGen{rng: rand.New(rand.NewSource(seed)), orders: rels[1].Len(), parts: rels[2].Len(), supp: rels[3].Len()}
	g.victims = make([]beas.Tuple, li.Len())
	for i, t := range li.Tuples {
		g.victims[i] = t.Clone()
	}
	g.rng.Shuffle(len(g.victims), func(i, j int) { g.victims[i], g.victims[j] = g.victims[j], g.victims[i] })
	return g, nil
}

// batch returns n operations, inserts and deletes in turn.
func (g *writeGen) batch(n int) []beas.Op {
	ops := make([]beas.Op, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			ops = append(ops, beas.Op{Kind: beas.OpDelete, Rel: "lineitem", Tuple: g.victims[0]})
			g.victims = g.victims[1:]
			continue
		}
		t := beas.Tuple{
			beas.Int(int64(g.rng.Intn(g.orders))),
			beas.Int(int64(g.rng.Intn(g.parts))),
			beas.Int(int64(g.rng.Intn(g.supp))),
			beas.Int(int64(1 + g.rng.Intn(50))),
			beas.Float(100 + g.rng.Float64()*100000),
			beas.Float(g.rng.Float64() * 0.1),
			beas.Int(int64(g.rng.Intn(2556))),
		}
		ops = append(ops, beas.Op{Kind: beas.OpInsert, Rel: "lineitem", Tuple: t})
		g.victims = append(g.victims, t)
	}
	return ops
}

// maintainer is the live persisted system of the maintain workload.
type maintainer struct {
	sys   *beas.System
	db    *beas.Database
	order []*poolQuery // the pool in traffic order
	gen   *writeGen
	next  int

	applyOp, queryOp  *opCount
	applyTime         time.Duration
	applyOps, batches int
	walBytes          int64
	etas              []float64
}

// openWarm opens the persisted TPCH system in dir from its snapshot.
func openWarm(ctx context.Context, sf int, dir string) (*beas.System, *beas.Database, error) {
	shell := workload.TPCHSchema(sf)
	sys, err := beas.OpenPersistedSchema(ctx, shell.DB, dir, nil, beas.WithCheckpointEvery(-1))
	if err != nil {
		return nil, nil, fmt.Errorf("warm start: %w", err)
	}
	if !sys.PersistStats().WarmStart {
		sys.Close()
		return nil, nil, errors.New("warm start: the snapshot was not loaded")
	}
	return sys, shell.DB, nil
}

// coldSnapshot generates the dataset, builds it cold and writes the
// snapshot the measured warm starts load. It returns the query pool, in
// generation and in traffic order, and the build time.
func coldSnapshot(ctx context.Context, b *bench, dir string) (pool, order []*poolQuery, buildS float64, err error) {
	d, pool, order, err := b.hotPool()
	if err != nil {
		return nil, nil, 0, err
	}
	var build time.Duration
	sys, err := beas.OpenPersisted(ctx, d.DB, dir, beas.WithCheckpointEvery(-1),
		beas.WithSchemaBuilder(func(*beas.Database) (*beas.AccessSchema, error) {
			t0 := time.Now()
			defer func() { build = time.Since(t0) }()
			return d.AccessSchema()
		}))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cold build: %w", err)
	}
	if err := sys.Close(); err != nil {
		return nil, nil, 0, err
	}
	return pool, order, build.Seconds(), nil
}

func runMaintain(ctx context.Context, b *bench) error {
	dir := filepath.Join(b.tmp, "maintain")
	pool, order, buildS, err := coldSnapshot(ctx, b, dir)
	if err != nil {
		return err
	}
	type warm struct {
		sys *beas.System
		db  *beas.Database
	}
	w, setupS, err := timeSetup(ctx, b.sz.warmLoads, func(ctx context.Context) (warm, error) {
		sys, db, err := openWarm(ctx, b.sz.hotScale, dir)
		return warm{sys, db}, err
	}, func(w warm) { w.sys.Close() })
	if err != nil {
		return err
	}
	defer w.sys.Close() // idempotent; the checks close it earlier
	b.setE2E("setup_s", setupS)
	b.setE2E("heap_live_mb", liveHeapMB())
	b.printf("setup (warm load) median=%.4fs; cold build %.4fs", setupS, buildS)

	gen, err := newWriteGen(w.db, b.cfg.Seed)
	if err != nil {
		return err
	}
	for _, pq := range pool {
		pq.sys = w.sys
	}
	m := &maintainer{sys: w.sys, db: w.db, order: order, gen: gen,
		applyOp: b.opKind(opApply), queryOp: b.opKind(opQuery)}

	m.window(ctx, b, nil, b.warmup())
	m.etas, m.applyTime, m.applyOps, m.batches, m.walBytes = nil, 0, 0, 0, 0
	plain := m.window(ctx, b, nil, b.window())
	b.setLatencyMetrics(plain)
	// Queries finish in bursts of roundQueries after each batch, so the
	// rate of a time slice moves in steps of a whole round; the window's
	// own rate does not.
	b.setE2E("throughput_qps", float64(plain.queries())/plain.elapsed.Seconds())
	b.setE2E("eta_mean", mean(m.etas))
	b.printf("writes batches=%d ops=%d", m.batches, m.applyOps)
	b.addExtra("access.apply_ms", "ms", float64(m.applyTime.Microseconds())/1e3/math.Max(1, float64(m.batches)))
	b.addExtra("apply_ops_per_s", "ops/s", float64(m.applyOps)/math.Max(1e-9, m.applyTime.Seconds()))
	b.addExtra("persist.wal_bytes_per_op", "bytes", float64(m.walBytes)/math.Max(1, float64(m.applyOps)))
	b.addExtra("persist.load_s", "s", setupS)

	var rec *recorder
	var traced *window
	var pc0, pc1 beas.PlanCacheStats
	if b.cfg.Trace {
		rec = newRecorder()
		m.window(ctx, b, nil, b.warmup())
		pc0 = w.sys.PlanCacheStats()
		traced = m.window(ctx, b, rec, b.window())
		pc1 = w.sys.PlanCacheStats()
	}

	ckOp := b.opKind(opCheckpoint)
	ckOp.attempted.Add(1)
	sp := rec.root("checkpoint")
	t0 := time.Now()
	err = w.sys.Checkpoint(ctx)
	ckDur := time.Since(t0)
	sp.end(nil)
	if err != nil {
		ckOp.failed.Add(1)
		b.printf("checkpoint failed: %v", err)
	}
	b.addExtra("persist.checkpoint_ms", "ms", float64(ckDur.Microseconds())/1e3)

	// The same checks against the mutated database, then a fresh warm
	// start from the directory must answer exactly as the live system.
	if err := b.setReferences(ctx, pool); err != nil {
		return err
	}
	sample, err := b.oracleSample(ctx, pool, b.sz.hotOracleEvery)
	if err != nil {
		return err
	}
	acc := make([]float64, len(sample))
	for i, s := range sample {
		acc[i] = s.accuracy
	}
	b.setE2E("accuracy_mean", mean(acc))
	liveSize := w.db.Size()
	if err := w.sys.Close(); err != nil {
		return fmt.Errorf("close live system: %w", err)
	}
	fresh, freshDB, err := openWarm(ctx, b.sz.hotScale, dir)
	if err != nil {
		return err
	}
	defer fresh.Close()
	if freshDB.Size() != liveSize {
		b.chk.failf("warm restart holds %d tuples, the live system %d", freshDB.Size(), liveSize)
	}
	for _, pq := range pool {
		pq.sys = fresh
		ans, err := b.libraryQuery(ctx, nil, pq)
		if err != nil {
			return fmt.Errorf("query after warm restart: %w", err)
		}
		b.compareRows(pq, ans)
	}
	snap, err := dirBytes(dir)
	if err != nil {
		return err
	}
	b.addExtra("snapshot_mb", "MB", float64(snap)/(1<<20))

	if !b.cfg.Trace {
		return nil
	}
	if err := b.probes(ctx, rec, pool); err != nil {
		return err
	}
	st := b.finishTrace(rec)
	b.setOverhead(plain, traced)
	b.setEvictions([]beas.PlanCacheStats{pc0}, []beas.PlanCacheStats{pc1}, traced)
	b.setLayer("sqlparser.parse_us", medianOf(st.bench, "parse"))
	b.setLayer("chase.plan_us", medianOf(st.bench, "probe.plan"))
	b.setPoolLayerMetrics(pool)
	b.setLayer("access.schema_build_s", buildS)
	b.setLayer("access.index_entries", float64(schemaEntries(fresh)))
	return nil
}

// compareRows checks that an answer has exactly the reference's rows, in
// order.
func (b *bench) compareRows(pq *poolQuery, ans *beas.Answer) {
	ok := ans.Rel.Len() == len(pq.ref.rows)
	for i := 0; ok && i < ans.Rel.Len(); i++ {
		t := ans.Rel.Tuples[i]
		ok = len(t) == len(pq.ref.rows[i])
		for j := 0; ok && j < len(t); j++ {
			ok = t[j].String() == pq.ref.rows[i][j]
		}
	}
	if !ok {
		b.chk.failf("answer after warm restart differs from the live system's: %s", pq.sql)
		return
	}
	b.chk.pass()
}

// window runs whole maintain rounds for d: one WAL-logged batch, then a
// few pool queries, all serially.
func (m *maintainer) window(ctx context.Context, b *bench, rec *recorder, d time.Duration) *window {
	w := &window{}
	a0, gc0 := runtimeCounters()
	wal0 := m.sys.PersistStats().WALBytes
	start := time.Now()
	for ctx.Err() == nil && time.Since(start) < d {
		ops := m.gen.batch(b.sz.batchOps)
		m.applyOp.attempted.Add(1)
		sp := rec.root("apply")
		t0 := time.Now()
		applied, err := m.sys.Apply(ctx, ops)
		m.applyTime += time.Since(t0)
		sp.end(nil)
		m.batches++
		m.applyOps += len(ops)
		if err != nil {
			m.applyOp.failed.Add(1)
			if w.firstErr == nil {
				w.firstErr = err
			}
		} else {
			all := len(applied) == len(ops)
			for _, a := range applied {
				all = all && a
			}
			if all {
				b.chk.pass()
			} else {
				b.chk.failf("write batch %d: not every operation applied (%v)", m.batches, applied)
			}
		}
		for j := 0; j < b.sz.roundQueries; j++ {
			pq := m.order[m.next%len(m.order)]
			m.next++
			m.queryOp.attempted.Add(1)
			t0 := time.Now()
			ans, err := b.libraryQuery(ctx, rec, pq)
			if err != nil {
				m.queryOp.failed.Add(1)
				if w.firstErr == nil {
					w.firstErr = err
				}
				continue
			}
			t1 := time.Now()
			w.lat = append(w.lat, t1.Sub(t0))
			w.done = append(w.done, t1.Sub(start))
			if rec == nil {
				m.etas = append(m.etas, ans.Eta)
			}
		}
	}
	w.elapsed = time.Since(start)
	if rec == nil {
		m.walBytes += m.sys.PersistStats().WALBytes - wal0
	}
	a1, gc1 := runtimeCounters()
	w.allocBytes, w.gcCycles = a1-a0, gc1-gc0
	return w
}
