package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/storage"
)

// The traced run executes the workload in-process against a service.DB
// built from the same CSVs and records a span around each call into a
// layer's public entry points. The program itself is not instrumented,
// so a read calls each layer separately:
//
//	plan.UnmarshalNode              decode
//	service.QueryEx                 the read as a client would run it (plan-cache hit or miss)
//	service.Handler                 the whole HTTP path, now a cache hit
//	service.QueryEx.hit             the same read again, a cache hit
//	service.QueryEx.explain         EXPLAIN ANALYZE, for operator self times
//	core.Snapshot                   pin and release
//	jit.PrepareOpt, jit.Exec        a fresh compile (the cost of a miss) and one execution
//
// The HTTP layer's own time (decode of the request body, result
// encoding, response write) is Handler minus decode minus a cache-hit
// QueryEx.

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin; Parent indexes the caller's span (-1 for a root);
// spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer keeps one goroutine's spans in memory.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// merge appends o's spans, rebasing parent indexes.
func (t *tracer) merge(o *tracer) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// layerSums accumulates the per-read layer figures.
type layerSums struct {
	reads, hits, misses                        int64
	decode, compile, exec, pin                 time.Duration
	encodeUS                                   []float64 // per read: handler - decode - cache-hit QueryEx
	respBytes, allocBytes, scanRowsIn, rowsOut int64
	opSelf                                     map[string]time.Duration
	opReads                                    map[string]int64
	liveMax                                    int
}

// writeSums accumulates the write-path figures.
type writeSums struct {
	mu                       sync.Mutex
	n                        int64
	service, walAppend, core time.Duration
	walBytes                 int64
	acked                    []int64
}

func runTraced(cfg *config, d *dataset, w *workload, t *tally) (metrics, error) {
	m := metrics{}
	root := &tracer{t0: time.Now()}
	dir := filepath.Join(cfg.runDir, "data")
	const setupReq = 0

	// Set-up through the same public calls served makes.
	sp := root.begin("setup", -1, setupReq)
	i := root.begin("persist.Open", sp, setupReq)
	db, mgr, err := persist.Open(persist.Options{Dir: dir, Fresh: true})
	root.end(i)
	if err != nil {
		return nil, err
	}
	s := service.New(db, service.Config{})
	s.AttachPersist(mgr, 64<<20) // served's -checkpoint-wal-mb default
	var loadRows int64
	var loadTime time.Duration
	for _, l := range []struct {
		table, spec string
		csv         []byte
	}{{"customers", customersSpec, d.custCSV}, {"sales", salesSpec, d.salesCSV}, {"events", eventsSpec, nil}} {
		i := root.begin("service.Load", sp, setupReq)
		res, err := s.Load(service.LoadSpec{Table: l.table, Format: "csv", CreateSpec: l.spec}, bytes.NewReader(l.csv))
		loadTime += root.end(i)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", l.table, err)
		}
		loadRows += int64(res.Rows)
	}
	i = root.begin("service.Checkpoint", sp, setupReq)
	info, err := s.Checkpoint()
	ckpt := root.end(i)
	root.end(sp)
	t.add("setup", err)
	if err != nil {
		return nil, err
	}
	m.set("load.rows_per_s", float64(loadRows)/loadTime.Seconds(), "1/s")
	m.set("checkpoint.ms", ms(ckpt), "ms")
	m.set("snapshot.bytes", float64(info.SnapshotBytes), "B")

	h := s.Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
		return rec
	}
	verify := func() {
		for _, q := range w.verify {
			t.add("verify", checked(serve(q.body()), func(b []byte) error { return d.check(q, b) }))
		}
	}
	verify()

	// The write path: inserts through the service, plus the same rows
	// through a WAL manager and a core.DB of their own, so LogInsert and
	// the copy-on-write commit are timed on their own.
	probe, err := newWriteProbe(filepath.Join(cfg.runDir, "probe"))
	if err != nil {
		return nil, err
	}
	defer probe.mgr.Close()
	ws := &writeSums{}
	wt := &tracer{t0: root.t0}
	// gate keeps writes out of a read's QueryEx-Handler-QueryEx sequence,
	// so the first call sees the cache state the writer left and the
	// other two are hits: without it a commit in between would charge a
	// recompile to the HTTP layer.
	var gate sync.RWMutex
	write := func(k int64) {
		gate.Lock()
		defer gate.Unlock()
		req := int32(1<<24 + k)
		r := wt.begin("write", -1, req)
		err := probe.write(s, wt, r, req, k, cfg.seed, ws)
		wt.end(r)
		t.add("write", err)
	}

	if !w.writer {
		for k := int64(1); k <= burstWrites; k++ {
			write(k)
		}
		verify()
	}

	// Untraced in-process reads for a quarter of the run, then the
	// traced reads for the whole run: their qps ratio is the tracing
	// overhead.
	var wg sync.WaitGroup
	quit := make(chan struct{})
	if w.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for k := int64(1); ; k++ {
				timer.Reset(time.Until(start.Add(time.Duration(k-1) * writePeriod)))
				select {
				case <-quit:
					return
				case <-timer.C:
				}
				write(k)
			}
		}()
	}

	next := 0
	untraced := 0
	for end := time.Now().Add(cfg.seconds / 4); time.Now().Before(end); next++ {
		q := w.read(next)
		rec := serve(q.body())
		t.add("read", checked(rec, func(b []byte) error { return d.checkCount(q, b) }))
		untraced++
	}
	m.set("trace.untraced_read_qps", float64(untraced)/(cfg.seconds/4).Seconds(), "1/s")

	pool := par.NewPool(0) // what service.New builds for Workers 0
	defer pool.Close()
	opt := par.WithPool(pool)
	ls := &layerSums{opSelf: map[string]time.Duration{}, opReads: map[string]int64{}}
	st0 := s.Stats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rt := &tracer{t0: root.t0}
	phaseStart := time.Now()
	for end := phaseStart.Add(cfg.seconds); time.Now().Before(end); next++ {
		q := w.read(next)
		t.add("read", tracedRead(s, h, opt, &gate, rt, int32(next+1), q, d, w, next, ls))
	}
	phase := time.Since(phaseStart)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	st1 := s.Stats()
	close(quit)
	wg.Wait()
	verify()

	// Operators the workload's reads never run (scan-export has no join
	// or aggregate) come from EXPLAIN ANALYZE of the dashboard shapes.
	missing := map[string]bool{}
	for _, op := range []string{"scan", "join-build", "join-probe", "group-by"} {
		if ls.opReads[op] == 0 {
			missing[op] = true
		}
	}
	for k := 0; k < 4 && len(missing) > 0; k++ {
		for _, sh := range dashShapes {
			p, err := plan.UnmarshalNode(query{shape: sh, a: tsRange / 2}.plan())
			if err != nil {
				return nil, err
			}
			_, tr, err := s.QueryEx(p, service.QueryOpts{Explain: true})
			if err != nil {
				return nil, err
			}
			self, _ := opSelfTimes(tr.Report())
			for op, v := range self {
				if missing[op] {
					ls.opSelf[op] += v
					ls.opReads[op]++
				}
			}
		}
	}

	reads := float64(max(ls.reads, 1))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / reads }
	m.set("trace.read_qps", float64(ls.reads)/phase.Seconds(), "1/s")
	m.set("http.decode_us", us(ls.decode), "us")
	m.set("http.encode_us", median(ls.encodeUS), "us")
	m.set("http.resp_bytes", float64(ls.respBytes)/reads, "B")
	m.set("http.alloc_kb_per_read", float64(ls.allocBytes)/1024/reads, "KB")
	m.set("plancache.hit_ratio", float64(ls.hits)/float64(max(ls.hits+ls.misses, 1)), "ratio")
	m.set("jit.compile_us", us(ls.compile), "us")
	m.set("jit.exec_us", us(ls.exec), "us")
	for op, name := range map[string]string{"scan": "op.scan_us", "join-build": "op.join_build_us", "join-probe": "op.join_probe_us", "group-by": "op.aggregate_us"} {
		m.set(name, float64(ls.opSelf[op].Nanoseconds())/1e3/float64(max(ls.opReads[op], 1)), "us")
	}
	m.set("op.rows_in_per_row_out", float64(ls.scanRowsIn)/float64(max(ls.rowsOut, 1)), "ratio")
	m.set("core.pin_ns", float64(ls.pin.Nanoseconds())/reads, "ns")
	m.set("mvcc.live_versions_max", float64(ls.liveMax), "count")
	m.set("gc.cycles_per_1k_reads", float64(ms1.NumGC-ms0.NumGC)*1000/reads, "count")
	m.set("gc.pause_us_per_read", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e3/reads, "us")
	calls := st1.Queries + st1.Failed + st1.Rejected - st0.Queries - st0.Failed - st0.Rejected
	m.set("admit.queued_share", float64(st1.Queued-st0.Queued)/float64(max(calls, 1)), "ratio")
	wn := float64(max(ws.n, 1))
	m.set("write.service_us", float64(ws.service.Nanoseconds())/1e3/wn, "us")
	m.set("wal.append_us", float64(ws.walAppend.Nanoseconds())/1e3/wn, "us")
	m.set("core.commit_us", float64(ws.core.Nanoseconds())/1e3/wn, "us")
	m.set("wal.bytes_per_row", float64(ws.walBytes)/wn, "B")

	// Recovery: reopen the directory the way a restarted served does.
	s.Close()
	if err := mgr.Close(); err != nil {
		return nil, err
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	var opens []float64
	for r := 0; r < restarts; r++ {
		req := int32(-1 - r)
		i := root.begin("persist.Open", -1, req)
		db2, mgr2, err := persist.Open(persist.Options{Dir: dir})
		opens = append(opens, root.end(i).Seconds())
		if err != nil {
			return nil, err
		}
		s2 := service.New(db2, service.Config{})
		h2 := s2.Handler()
		q := firstQuery(w)
		rec := httptest.NewRecorder()
		h2.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(q.body())))
		err = checked(rec, func(b []byte) error { return d.check(q, b) })
		if r == 0 && err == nil {
			rec := httptest.NewRecorder()
			h2.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(eventIDsBody)))
			err = checked(rec, func(b []byte) error { return eventsMatch(b, ws.acked, ws.acked) })
		}
		t.add("recover", err)
		s2.Close()
		if cerr := mgr2.Close(); cerr != nil {
			return nil, cerr
		}
	}
	m.set("recover.mb_per_s", float64(onDisk)/1e6/median(opens), "MB/s")

	fmt.Printf("traced read_qps %.2f against %.2f untraced in-process (overhead %.2fx); untraced end-to-end read_qps comes from --trace 0\n",
		m["trace.read_qps"].Value, m["trace.untraced_read_qps"].Value, m["trace.untraced_read_qps"].Value/m["trace.read_qps"].Value)
	root.merge(rt)
	root.merge(wt)
	printLayerSummary(root.spans)
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s.jsonl", cfg.workload))
	if err := writeSpans(path, root.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(root.spans), path)
	return m, nil
}

// tracedRead runs one read through every layer under spans.
func tracedRead(s *service.DB, h http.Handler, opt par.Options, gate *sync.RWMutex, tr *tracer, req int32, q query, d *dataset, w *workload, i int, ls *layerSums) error {
	pj, body := q.plan(), q.body()
	httpReq := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()

	r := tr.begin("read", -1, req)
	defer tr.end(r)

	sp := tr.begin("plan.UnmarshalNode", r, req)
	p, err := plan.UnmarshalNode(pj)
	decode := tr.end(sp)
	if err != nil {
		return err
	}

	gate.RLock()
	st0 := s.Stats()
	sp = tr.begin("service.QueryEx", r, req)
	_, _, err = s.QueryEx(p, service.QueryOpts{})
	tr.end(sp)
	st1 := s.Stats()
	if err != nil {
		gate.RUnlock()
		return err
	}
	ls.hits += st1.PlanCacheHits - st0.PlanCacheHits
	ls.misses += st1.PlanCacheMiss - st0.PlanCacheMiss

	a0 := heapAllocs()
	sp = tr.begin("service.Handler", r, req)
	h.ServeHTTP(rec, httpReq)
	handler := tr.end(sp)
	ls.allocBytes += int64(heapAllocs() - a0)
	ls.respBytes += int64(rec.Body.Len())
	sp = tr.begin("service.QueryEx.hit", r, req)
	_, _, err = s.QueryEx(p, service.QueryOpts{})
	hit := tr.end(sp)
	gate.RUnlock()
	if err != nil {
		return err
	}
	if w.fullCheck(i) {
		err = checked(rec, func(b []byte) error { return d.check(q, b) })
	} else {
		err = checked(rec, func(b []byte) error { return d.checkCount(q, b) })
	}
	if err != nil {
		return err
	}

	sp = tr.begin("service.QueryEx.explain", r, req)
	res, trace, err := s.QueryEx(p, service.QueryOpts{Explain: true})
	tr.end(sp)
	if err != nil {
		return err
	}
	self, scanIn := opSelfTimes(trace.Report())
	for op, v := range self {
		ls.opSelf[op] += v
		ls.opReads[op]++
	}
	ls.scanRowsIn += scanIn
	ls.rowsOut += int64(res.Len())

	sp = tr.begin("core.Snapshot", r, req)
	snap := s.Unwrap().Snapshot()
	snap.Release()
	pin := tr.end(sp)

	snap = s.Unwrap().Snapshot()
	defer snap.Release()
	cat := snap.Catalog()
	if err := plan.Check(p, cat); err != nil {
		return err
	}
	sp = tr.begin("jit.PrepareOpt", r, req)
	prep := jit.PrepareOpt(p, cat, opt)
	compile := tr.end(sp)
	sp = tr.begin("jit.Exec", r, req)
	out := prep.Exec()
	exec := tr.end(sp)
	// The snapshot is still pinned: a commit since the pin shows here.
	ls.liveMax = max(ls.liveMax, s.Unwrap().LiveVersions())
	if out.Len() != res.Len() {
		return fmt.Errorf("%v: jit.Exec returned %d rows, QueryEx %d", q.shape, out.Len(), res.Len())
	}

	ls.reads++
	ls.decode += decode
	ls.encodeUS = append(ls.encodeUS, float64((handler-decode-hit).Nanoseconds())/1e3)
	ls.pin += pin
	ls.compile += compile
	ls.exec += exec
	return nil
}

// opSelfTimes turns an EXPLAIN ANALYZE report into self time per
// operator kind, plus rows read by executed scans.
// Self time is an operator's time minus its children's. The jit engine
// fuses a pipeline's operators into one loop and reports the loop's time
// on each of them; that loop is charged to the topmost operator of the
// fused chain (a join probe takes its fused probe-side scan, a lone scan
// keeps its own loop). The join build runs at compile time: its
// recorded cost is its own and is not part of its parent's time.
func opSelfTimes(rep []obs.OpReport) (map[string]time.Duration, int64) {
	n := len(rep)
	children := make([][]int, n)
	parent := make([]int, n)
	var stack []int
	for i, r := range rep {
		for len(stack) > 0 && rep[stack[len(stack)-1]].Depth >= r.Depth {
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
			children[parent[i]] = append(children[parent[i]], i)
		}
		stack = append(stack, i)
	}
	self := make([]int64, n)
	for i, r := range rep {
		self[i] = r.Nanos
		if r.Static {
			continue
		}
		for _, c := range children[i] {
			if !rep[c].Static {
				self[i] -= rep[c].Nanos
			}
		}
	}
	// Children come after parents in pre-order, so walking backwards
	// moves a fused loop up the chain one level at a time.
	for i := n - 1; i >= 0; i-- {
		if p := parent[i]; p >= 0 && !rep[i].Static && rep[i].Nanos == rep[p].Nanos {
			self[p] += self[i]
			self[i] = 0
		}
	}
	out := map[string]time.Duration{}
	var scanIn int64
	for i, r := range rep {
		out[r.Op] += time.Duration(max(self[i], 0))
		if r.Op == "scan" && !r.Static {
			scanIn += r.RowsIn
		}
	}
	return out, scanIn
}

// writeProbe is a WAL manager and core.DB of their own with an events
// table, so the write path's layers can be timed apart from the service.
type writeProbe struct {
	db  *core.DB
	mgr *persist.Manager
}

func newWriteProbe(dir string) (*writeProbe, error) {
	db, mgr, err := persist.Open(persist.Options{Dir: dir, Fresh: true})
	if err != nil {
		return nil, err
	}
	attrs, err := persist.ParseSchemaSpec(eventsSpec)
	if err != nil {
		return nil, err
	}
	tx := db.BeginWrite()
	tx.AddTable(storage.NewRelation(storage.NewSchema("events", attrs...), storage.NSM(len(attrs))))
	if err := mgr.LogCreateTable(tx.Catalog(), "events"); err != nil {
		return nil, err
	}
	tx.Commit()
	return &writeProbe{db: db, mgr: mgr}, nil
}

// write inserts event k through the service, then the same row through
// the probe's WAL and copy-on-write commit.
func (wp *writeProbe) write(s *service.DB, tr *tracer, parent, req int32, k int64, seed uint64, ws *writeSums) error {
	p, err := plan.UnmarshalNode(bytes.TrimSuffix(bytes.TrimPrefix(insertBody(k, k, eventVal(seed, k)), []byte(`{"plan":`)), []byte("}")))
	if err != nil {
		return err
	}
	rows := p.(plan.Insert).Rows
	sp := tr.begin("service.QueryEx.insert", parent, req)
	res, _, err := s.QueryEx(p, service.QueryOpts{})
	svc := tr.end(sp)
	if err != nil {
		return err
	}
	if res.Len() != 1 {
		return fmt.Errorf("insert: %d result rows, want 1", res.Len())
	}
	before := wp.mgr.WALSize()
	sp = tr.begin("persist.LogInsert", parent, req)
	err = wp.mgr.LogInsert("events", len(rows[0]), rows)
	wal := tr.end(sp)
	if err != nil {
		return err
	}
	grown := wp.mgr.WALSize() - before
	sp = tr.begin("core.WriteTxn.commit", parent, req)
	tx := wp.db.BeginWrite()
	tx.Insert("events", rows)
	tx.Commit()
	commit := tr.end(sp)

	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.n++
	ws.service += svc
	ws.walAppend += wal
	ws.core += commit
	ws.walBytes += grown
	ws.acked = append(ws.acked, k)
	return nil
}

// checked applies check to a recorded 200 response.
func checked(rec *httptest.ResponseRecorder, check func([]byte) error) error {
	if rec.Code != 200 {
		return fmt.Errorf("status %d: %s", rec.Code, truncate(rec.Body.Bytes()))
	}
	return check(rec.Body.Bytes())
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// printLayerSummary prints per span name the call count, mean duration
// and mean self time (duration minus the time its child spans cover).
func printLayerSummary(spans []span) {
	type agg struct {
		n           int64
		total, self int64
	}
	sums := map[string]*agg{}
	childTime := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		a := sums[s.Name]
		if a == nil {
			a = &agg{}
			sums[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - childTime[i]
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return sums[names[i]].self > sums[names[j]].self })
	fmt.Printf("%-26s %8s %12s %12s %12s\n", "layer", "calls", "mean us", "self us", "self total ms")
	for _, n := range names {
		a := sums[n]
		fmt.Printf("%-26s %8d %12.1f %12.1f %12.1f\n", n, a.n,
			float64(a.total)/1e3/float64(a.n), float64(a.self)/1e3/float64(a.n), float64(a.self)/1e6)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
