package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
)

// Data make-up. Sizes are fixed; only values depend on the seed.
//
// sales is the fact table: 200 000 rows of 17 attributes in the default
// row layout, 27.2 MB of 8-byte words — far above one core's 2 MiB L2
// and far below the shared L3. customers is the join build side, events
// is the narrow table only the writer touches.
const (
	salesRows    = 200_000
	customerRows = 30_000
	tsRange      = 1_000_000_000 // sales.ts is uniform over [0, tsRange)
)

var (
	regions    = []string{"north", "south", "east", "west", "central", "coast", "mountain", "plains"}
	channels   = []string{"web", "store", "phone", "partner"}
	statuses   = []string{"new", "paid", "shipped", "returned", "closed"}
	categories = []string{"books", "music", "garden", "tools", "toys", "food", "sports", "health", "auto", "office", "pets", "home"}
	segments   = []string{"consumer", "corporate", "small-biz", "public", "education", "nonprofit"}
	countries  = []string{"at", "be", "ch", "cz", "de", "dk", "es", "fi", "fr", "gr", "hu", "ie", "it", "lu", "nl", "no", "pl", "pt", "se", "uk"}
)

// Create specs for POST /load; column order is the CSV column order.
const (
	salesSpec     = "id:int64,ts:int64,cust:int64,qty:int64,price:float64,amount:int64,region:string,channel:string,status:string,store:int64,product:int64,discount:float64,tax:float64,ship_days:int64,priority:int64,weight:float64,category:string"
	customersSpec = "id:int64,name:string,segment:string,country:string,credit:int64"
	eventsSpec    = "id:int64,ts:int64,val:int64"
)

// Attribute positions the queries use.
const (
	sID, sTS, sCust, sQty, sPrice, sAmount, sRegion, sChannel = 0, 1, 2, 3, 4, 5, 6, 7
	cID, cSegment                                             = 0, 2
)

// sale holds one generated sales row. Fractional measures are kept as
// integer multiples of a power-of-two fraction (quarters, eighths,
// sixteenths), so every float the engine sums is exact in any order and
// the oracle can compare sums bit for bit.
type sale struct {
	id, ts, cust, qty, priceQ, amount int64
	region, channel, status, category uint8
	store, product, discountE, taxS   int64
	shipDays, priority, weightQ       int64
}

type customer struct {
	segment, country uint8
	credit           int64
}

// dataset is the generated input plus the oracle's indexes over it. The
// oracle shares nothing with the engines: filtered aggregates are
// answered from per-group prefix sums over rows sorted by ts.
type dataset struct {
	sales     []sale
	customers []customer
	salesCSV  []byte
	custCSV   []byte

	all      *prefix   // every sale
	rc       []*prefix // by region*len(channels)+channel
	seg      []*prefix // by customer segment
	sortedTS []int64   // every sale's ts, ascending
}

// prefix answers count/sum queries over "ts < c" for one group of rows.
type prefix struct {
	ts     []int64 // ascending
	qty    []int64 // qty[i] = sum of the first i rows' qty
	priceQ []int64
	amount []int64
}

func newPrefix(rows []sale, idx []int32) *prefix {
	p := &prefix{
		ts:     make([]int64, len(idx)),
		qty:    make([]int64, len(idx)+1),
		priceQ: make([]int64, len(idx)+1),
		amount: make([]int64, len(idx)+1),
	}
	for i, ri := range idx {
		r := &rows[ri]
		p.ts[i] = r.ts
		p.qty[i+1] = p.qty[i] + r.qty
		p.priceQ[i+1] = p.priceQ[i] + r.priceQ
		p.amount[i+1] = p.amount[i] + r.amount
	}
	return p
}

// below returns how many rows of the group have ts < c.
func (p *prefix) below(c int64) int {
	return sort.Search(len(p.ts), func(i int) bool { return p.ts[i] >= c })
}

// generate builds the dataset for a seed: same seed, same bytes.
func generate(seed uint64) *dataset {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	d := &dataset{
		sales:     make([]sale, salesRows),
		customers: make([]customer, customerRows),
	}
	cb := make([]byte, 0, customerRows*40)
	for i := range d.customers {
		c := customer{
			segment: uint8(rng.IntN(len(segments))),
			country: uint8(rng.IntN(len(countries))),
			credit:  rng.Int64N(1_000_000),
		}
		d.customers[i] = c
		cb = strconv.AppendInt(cb, int64(i), 10)
		cb = fmt.Appendf(cb, ",cust-%06d-%04x,", i, rng.IntN(1<<16))
		cb = append(cb, segments[c.segment]...)
		cb = append(cb, ',')
		cb = append(cb, countries[c.country]...)
		cb = append(cb, ',')
		cb = strconv.AppendInt(cb, c.credit, 10)
		cb = append(cb, '\n')
	}
	d.custCSV = cb

	sb := make([]byte, 0, salesRows*110)
	for i := range d.sales {
		s := sale{
			id:        int64(i),
			ts:        rng.Int64N(tsRange),
			cust:      rng.Int64N(customerRows),
			qty:       1 + rng.Int64N(50),
			priceQ:    4 + rng.Int64N(40_000),
			amount:    100 + rng.Int64N(100_000),
			region:    uint8(rng.IntN(len(regions))),
			channel:   uint8(rng.IntN(len(channels))),
			status:    uint8(rng.IntN(len(statuses))),
			category:  uint8(rng.IntN(len(categories))),
			store:     rng.Int64N(1000),
			product:   rng.Int64N(50_000),
			discountE: rng.Int64N(81),
			taxS:      rng.Int64N(1601),
			shipDays:  rng.Int64N(30),
			priority:  rng.Int64N(5),
			weightQ:   1 + rng.Int64N(400),
		}
		d.sales[i] = s
		sb = appendSaleCSV(sb, &s)
	}
	d.salesCSV = sb

	byTS := make([]int32, salesRows) // sale indices sorted by (ts, id)
	for i := range byTS {
		byTS[i] = int32(i)
	}
	sort.Slice(byTS, func(a, b int) bool {
		x, y := &d.sales[byTS[a]], &d.sales[byTS[b]]
		if x.ts != y.ts {
			return x.ts < y.ts
		}
		return x.id < y.id
	})
	d.sortedTS = make([]int64, salesRows)
	rcIdx := make([][]int32, len(regions)*len(channels))
	segIdx := make([][]int32, len(segments))
	for i, ri := range byTS {
		s := &d.sales[ri]
		d.sortedTS[i] = s.ts
		g := int(s.region)*len(channels) + int(s.channel)
		rcIdx[g] = append(rcIdx[g], ri)
		sg := d.customers[s.cust].segment
		segIdx[sg] = append(segIdx[sg], ri)
	}
	d.all = newPrefix(d.sales, byTS)
	for _, idx := range rcIdx {
		d.rc = append(d.rc, newPrefix(d.sales, idx))
	}
	for _, idx := range segIdx {
		d.seg = append(d.seg, newPrefix(d.sales, idx))
	}
	return d
}

func appendSaleCSV(b []byte, s *sale) []byte {
	b = strconv.AppendInt(b, s.id, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.ts, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.cust, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.qty, 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, float64(s.priceQ)/4, 'f', -1, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.amount, 10)
	b = append(b, ',')
	b = append(b, regions[s.region]...)
	b = append(b, ',')
	b = append(b, channels[s.channel]...)
	b = append(b, ',')
	b = append(b, statuses[s.status]...)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.store, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.product, 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, float64(s.discountE)/8, 'f', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, float64(s.taxS)/16, 'f', -1, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.shipDays, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.priority, 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, float64(s.weightQ)/4, 'f', -1, 64)
	b = append(b, ',')
	b = append(b, categories[s.category]...)
	return append(b, '\n')
}

// inputBytes is the CSV volume set-up loads.
func (d *dataset) inputBytes() int64 { return int64(len(d.salesCSV) + len(d.custCSV)) }

// exportRange returns the sortedTS positions [lo, hi) of rows with ts in
// [a, b] (inclusive, like the between predicate).
func (d *dataset) exportRange(a, b int64) (int, int) {
	lo := sort.Search(len(d.sortedTS), func(i int) bool { return d.sortedTS[i] >= a })
	hi := sort.Search(len(d.sortedTS), func(i int) bool { return d.sortedTS[i] > b })
	return lo, hi
}
