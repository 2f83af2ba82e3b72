package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Workloads. Each has one closed-loop reader; dash-rw adds an open-loop
// writer to its timed phase, the others run the same writer in a write
// phase after it.
const (
	writeRate      = 50               // inserts per second, open loop
	writePhase     = 10 * time.Second // the read-only workloads' write phase
	burstWrites    = 1000             // traced run: closed-loop inserts of the read-only workloads
	sweepVerify    = 24               // untimed full checks of adhoc-sweep reads
	exportRows     = 10_000           // rows per scan-export response, ties at the edges aside
	exportSampling = 16               // one timed export in this many is checked in full
)

type workload struct {
	writer bool    // open-loop writer during the timed phase
	fixed  []query // the distinct reads, cycled in order (dash-rw, scan-export)
	sweep  []int64 // fresh filter constants, one per read (adhoc-sweep)
	verify []query // reads compared in full before and after the timed phase
	mix    uint64  // seeds the choice of exports compared in full
}

var workloadNames = []string{"dash-rw", "adhoc-sweep", "scan-export"}

// dashShapes are the shapes dash-rw and adhoc-sweep cycle through.
var dashShapes = []shape{shapeFiltered, shapeGroup, shapeJoin}

// newWorkload derives the workload's reads from the seed and the data.
// Fixed constants sit at fixed quantiles of sales.ts, so every seed
// gives the same selectivities and export sizes.
func newWorkload(name string, seed uint64, d *dataset) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	w := &workload{}
	switch name {
	case "dash-rw":
		w.writer = true
		// Four fixed constants per shape: 20, 45, 70 and 95% selectivity.
		for _, sel := range []int{20, 45, 70, 95} {
			c := d.sortedTS[salesRows*sel/100]
			for _, s := range dashShapes {
				w.fixed = append(w.fixed, query{shape: s, a: c})
			}
		}
		w.verify = w.fixed
	case "adhoc-sweep":
		// Enough fresh constants for any run; a read past the end would
		// wrap around, which a run of the configured length never reaches.
		w.sweep = make([]int64, 1<<18)
		for i := range w.sweep {
			w.sweep[i] = sweepConst(rng)
		}
		for i := 0; i < sweepVerify; i++ {
			w.verify = append(w.verify, query{shape: dashShapes[i%len(dashShapes)], a: sweepConst(rng)})
		}
	case "scan-export":
		// Four windows of exportRows consecutive ts values.
		for k := 0; k < 4; k++ {
			i := rng.IntN(salesRows - exportRows)
			w.fixed = append(w.fixed, query{shape: shapeExport, a: d.sortedTS[i], b: d.sortedTS[i+exportRows-1]})
		}
		w.verify = w.fixed
		w.mix = rng.Uint64()
	default:
		return nil, unknownWorkload(name)
	}
	return w, nil
}

func unknownWorkload(name string) error {
	return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sweepConst draws a filter constant selecting 1-100% of sales.
func sweepConst(rng *rand.Rand) int64 { return tsRange/100 + rng.Int64N(tsRange-tsRange/100) }

// read returns the i-th read of the timed phase.
func (w *workload) read(i int) query {
	if w.sweep != nil {
		return query{shape: dashShapes[i%len(dashShapes)], a: w.sweep[i%len(w.sweep)]}
	}
	return w.fixed[i%len(w.fixed)]
}

// fullCheck reports whether the i-th read is compared in full: every
// small result, and a seeded one in exportSampling exports. The other
// exports get the row-count check.
func (w *workload) fullCheck(i int) bool {
	return w.read(i).shape != shapeExport || splitmix(w.mix+uint64(i))%exportSampling == 0
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// eventVal is the val column of the k-th insert.
func eventVal(seed uint64, k int64) int64 { return int64(splitmix(seed^uint64(k)) >> 1) }

const writePeriod = time.Second / writeRate
