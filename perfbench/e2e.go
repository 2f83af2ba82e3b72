package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

const (
	setups   = 3 // set-ups per run; setup_s is their median
	restarts = 9 // kill-and-restarts per run; recover_s is their median
)

// runE2E is the untraced run: it drives a real served over loopback and
// returns the end-to-end metrics.
func runE2E(cfg *config, d *dataset, w *workload, t *tally) (metrics, error) {
	m := metrics{}

	// Set-up, several times; the last server carries the timed phase.
	var srv *server
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.kill()
			if err := os.RemoveAll(srv.dir); err != nil {
				return nil, err
			}
		}
		s, took, err := setup(cfg, d, w, i)
		t.add("setup", err)
		if err != nil {
			if s != nil {
				s.kill()
			}
			return nil, err
		}
		srv = s
		setupTimes = append(setupTimes, took.Seconds())
	}
	defer func() { srv.kill() }()
	m.set("setup_s", median(setupTimes), "s")
	disk, err := dirBytes(srv.dir)
	if err != nil {
		return nil, err
	}
	m.set("disk_bytes_per_input_byte", float64(disk)/float64(d.inputBytes()), "ratio")

	rc := newClient(srv.base)
	defer rc.close()
	verifyAll(rc, d, w, t)

	// Timed phase.
	cpu0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	host0, steal0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var wr *writer
	if w.writer {
		wr = startWriter(srv.base, cfg.seed, start)
	}
	next := 0
	lat := readLoop(rc, d, w, t, &next, start.Add(cfg.seconds))
	readEnd := time.Now()
	cpu1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	ops := len(lat)
	if wr != nil {
		ops += wr.completedBy(readEnd)
	}
	m.set("read_qps", float64(len(lat))/readEnd.Sub(start).Seconds(), "1/s")
	m.set("read_p50_ms", percentile(lat, 0.50), "ms")
	m.set("server_cpu_ms_per_op", ms(time.Duration(cpu1-cpu0)*clockTick)/float64(max(ops, 1)), "ms")
	fmt.Printf("reads: %d timed, p95 %.3f ms, p99 %.3f ms\n", len(lat), percentile(lat, 0.95), percentile(lat, 0.99))
	if host1, steal1, err := hostCPU(); err == nil {
		fmt.Printf("host: %.1f%% of CPU time stolen during the timed phase\n", 100*float64(steal1-steal0)/float64(max(host1-host0, 1)))
	}

	verifyAll(rc, d, w, t)

	// Write phase. dash-rw's writer has been running since the timed
	// phase began and its inserts are timed there. The read-only
	// workloads start the same writer now, beside untimed reads that
	// continue their sequence, and time its inserts over writePhase.
	writeStart, writeEnd := start, readEnd
	if wr == nil {
		writeStart = time.Now()
		writeEnd = writeStart.Add(writePhase)
		wr = startWriter(srv.base, cfg.seed, writeStart)
		readLoop(rc, d, w, t, &next, writeEnd)
	}

	// The kill, under the running writer.
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.set("server_peak_rss_mb", rss, "MB")
	killAt := time.Now()
	srv.kill()
	var acked, sent []int64
	var writeLat []float64
	for _, r := range wr.stop() {
		sent = append(sent, r.id)
		if r.err != nil && !r.done.Before(killAt) {
			continue // cut by the kill: in doubt, neither acknowledged nor failed
		}
		t.add("write", r.err)
		if r.err == nil {
			acked = append(acked, r.id)
			if !r.due.Before(writeStart) && r.due.Before(writeEnd) {
				writeLat = append(writeLat, ms(r.done.Sub(r.due)))
			}
		}
	}
	fmt.Printf("writer: %d sent, %d acknowledged before the kill, %d timed, p50 %.3f ms, p99 %.3f ms; lateness p50 %.3f ms, max %.3f ms\n",
		len(sent), len(acked), len(writeLat), percentile(writeLat, 0.5), percentile(writeLat, 0.99), wr.lateness(0.5), wr.lateness(1))

	// Kill-and-restart: time to the first correct answer, then the
	// durability property on the first restart.
	var recTimes []float64
	for r := 0; r < restarts; r++ {
		s, took, err := restart(cfg, d, w, srv.dir)
		t.add("recover", err)
		if err != nil {
			if s != nil {
				s.kill()
			}
			return nil, err
		}
		srv = s
		recTimes = append(recTimes, took.Seconds())
		if r == 0 {
			c := newClient(srv.base)
			t.add("recover", checkEvents(c, acked, sent))
			verifyAll(c, d, w, t)
			c.close()
		}
		srv.kill()
	}
	m.set("recover_s", median(recTimes), "s")
	fmt.Printf("set-up s %.3f\nrecovery s %.3f\n", setupTimes, recTimes)
	return m, nil
}

// readLoop runs the workload's reads from *next on until end and
// returns the latency of each correct one in ms.
func readLoop(c *client, d *dataset, w *workload, t *tally, next *int, end time.Time) []float64 {
	var lat []float64
	bodies := map[query][]byte{}
	for ; time.Now().Before(end); *next++ {
		i := *next
		q := w.read(i)
		body, ok := bodies[q]
		if !ok {
			body = q.body()
			if w.sweep == nil {
				bodies[q] = body
			}
		}
		t0 := time.Now()
		resp, err := c.do("/query", body)
		took := time.Since(t0)
		if err == nil {
			if w.fullCheck(i) {
				err = d.check(q, resp)
			} else {
				err = d.checkCount(q, resp)
			}
		}
		t.add("read", err)
		if err == nil {
			lat = append(lat, ms(took))
		}
	}
	return lat
}

// setup starts served on an empty directory, loads every table through
// POST /load, checkpoints, and waits for a correct first answer.
func setup(cfg *config, d *dataset, w *workload, i int) (*server, time.Duration, error) {
	dir := filepath.Join(cfg.runDir, fmt.Sprintf("data%d", i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := startServer(cfg.served, dir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(srv.base)
	defer c.close()
	if err := srv.waitReady(c, time.Minute); err != nil {
		return srv, 0, err
	}
	loads := []struct {
		table, spec string
		csv         []byte
		rows        int
	}{
		{"customers", customersSpec, d.custCSV, customerRows},
		{"sales", salesSpec, d.salesCSV, salesRows},
		{"events", eventsSpec, nil, 0},
	}
	for _, l := range loads {
		body, err := c.do("/load?format=csv&table="+l.table+"&create="+l.spec, l.csv)
		if err != nil {
			return srv, 0, err
		}
		if !bytes.Contains(body, fmt.Appendf(nil, `"rows":%d`, l.rows)) {
			return srv, 0, fmt.Errorf("load %s: %s", l.table, truncate(body))
		}
	}
	if _, err := c.do("/checkpoint", []byte("{}")); err != nil {
		return srv, 0, err
	}
	q := firstQuery(w)
	resp, err := c.do("/query", q.body())
	if err == nil {
		err = d.check(q, resp)
	}
	return srv, time.Since(t0), err
}

// firstQuery is the read that marks a server as answering.
func firstQuery(w *workload) query { return w.verify[0] }

// restart starts served on the killed server's directory and polls the
// first query until it is answered correctly.
func restart(cfg *config, d *dataset, w *workload, dir string) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(cfg.served, dir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(srv.base)
	defer c.close()
	q := firstQuery(w)
	body := q.body()
	for deadline := t0.Add(2 * time.Minute); time.Now().Before(deadline); {
		if srv.exited() {
			return srv, 0, fmt.Errorf("served exited during recovery: %v", srv.err)
		}
		resp, status, err := c.post("/query", body)
		if err != nil || status == http.StatusServiceUnavailable {
			time.Sleep(time.Millisecond)
			continue
		}
		if status != http.StatusOK {
			return srv, 0, fmt.Errorf("first query after restart: status %d: %s", status, truncate(resp))
		}
		return srv, time.Since(t0), d.check(q, resp)
	}
	return srv, 0, errors.New("no answer after restart")
}

// checkEvents verifies that every acknowledged insert survived the kill
// and that count(events) lies between the acknowledged and sent counts.
func checkEvents(c *client, acked, sent []int64) error {
	resp, err := c.do("/query", eventIDsBody)
	if err != nil {
		return err
	}
	return eventsMatch(resp, acked, sent)
}

// eventsMatch checks an events id scan against the inserts sent and
// acknowledged.
func eventsMatch(resp []byte, acked, sent []int64) error {
	ids, err := eventIDs(resp)
	if err != nil {
		return err
	}
	if len(ids) < len(acked) || len(ids) > len(sent) {
		return fmt.Errorf("count(events) = %d, want between %d acknowledged and %d sent", len(ids), len(acked), len(sent))
	}
	have := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if have[id] {
			return fmt.Errorf("events id %d twice", id)
		}
		have[id] = true
	}
	for _, id := range sent {
		delete(have, id)
	}
	if len(have) > 0 {
		return fmt.Errorf("%d events ids were never sent", len(have))
	}
	slices.Sort(ids)
	for _, id := range acked {
		if _, ok := slices.BinarySearch(ids, id); !ok {
			return fmt.Errorf("acknowledged insert %d lost", id)
		}
	}
	return nil
}

// verifyAll compares every verification read in full.
func verifyAll(c *client, d *dataset, w *workload, t *tally) {
	for _, q := range w.verify {
		resp, err := c.do("/query", q.body())
		if err == nil {
			err = d.check(q, resp)
		}
		t.add("verify", err)
	}
}

// writer is the open-loop inserter of dash-rw: insert k is due at
// start + k/writeRate and is timed from its due time.
type writer struct {
	quit chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	recs []writeRec
}

type writeRec struct {
	id              int64
	due, sent, done time.Time
	err             error
}

func startWriter(base string, seed uint64, start time.Time) *writer {
	w := &writer{quit: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		c := newClient(base)
		defer c.close()
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		for k := int64(1); ; k++ {
			due := start.Add(time.Duration(k-1) * writePeriod)
			if d := time.Until(due); d > 0 {
				timer.Reset(d)
				select {
				case <-w.quit:
					return
				case <-timer.C:
				}
			} else {
				select {
				case <-w.quit:
					return
				default:
				}
			}
			r := writeRec{id: k, due: due, sent: time.Now()}
			resp, err := c.do("/query", insertBody(k, k, eventVal(seed, k)))
			if err == nil {
				err = checkInsert(resp)
			}
			r.done, r.err = time.Now(), err
			w.mu.Lock()
			w.recs = append(w.recs, r)
			w.mu.Unlock()
		}
	}()
	return w
}

// completedBy counts inserts acknowledged by t.
func (w *writer) completedBy(t time.Time) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, r := range w.recs {
		if r.err == nil && !r.done.After(t) {
			n++
		}
	}
	return n
}

// stop ends the writer and returns every insert it sent.
func (w *writer) stop() []writeRec {
	close(w.quit)
	w.wg.Wait()
	return w.recs
}

// lateness returns the q-quantile of how late inserts were sent, in ms.
func (w *writer) lateness(q float64) float64 {
	var l []float64
	for _, r := range w.recs {
		l = append(l, ms(r.sent.Sub(r.due)))
	}
	return percentile(l, q)
}
