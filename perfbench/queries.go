package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// shape is one fixed query shape; a query is a shape plus its constants.
type shape int

const (
	shapeFiltered shape = iota // aggregate over sales where ts < a
	shapeGroup                 // group by (region, channel) over sales where ts < a
	shapeJoin                  // group by segment over customers ⋈ sales where ts < a
	shapeExport                // six sales columns where a <= ts <= b
)

var shapeNames = [...]string{"filtered-agg", "group-agg", "join-agg", "export"}

func (s shape) String() string { return shapeNames[s] }

type query struct {
	shape shape
	a, b  int64
}

// plan returns the query's plan JSON, written by hand so the benchmark
// depends on the wire format only.
func (q query) plan() []byte {
	lt := fmt.Sprintf(`{"pred":"cmp","attr":%d,"op":"<","val":{"int":%d}}`, sTS, q.a)
	switch q.shape {
	case shapeFiltered:
		return fmt.Appendf(nil, `{"op":"aggregate","child":{"op":"scan","table":"sales","filter":%s,"cols":[%d,%d,%d]},"groupBy":[],"aggs":[`+
			`{"agg":"count","name":"n"},`+
			`{"agg":"sum","arg":{"expr":"col","attr":0,"type":"int64"},"name":"qty"},`+
			`{"agg":"sum","arg":{"expr":"col","attr":1,"type":"float64"},"name":"price"},`+
			`{"agg":"sum","arg":{"expr":"col","attr":2,"type":"int64"},"name":"amount"},`+
			`{"agg":"avg","arg":{"expr":"col","attr":1,"type":"float64"},"name":"avg_price"}]}`,
			lt, sQty, sPrice, sAmount)
	case shapeGroup:
		return fmt.Appendf(nil, `{"op":"aggregate","child":{"op":"scan","table":"sales","filter":%s,"cols":[%d,%d,%d,%d]},"groupBy":[0,1],"aggs":[`+
			`{"agg":"count","name":"n"},`+
			`{"agg":"sum","arg":{"expr":"col","attr":2,"type":"int64"},"name":"qty"},`+
			`{"agg":"sum","arg":{"expr":"col","attr":3,"type":"float64"},"name":"price"}]}`,
			lt, sRegion, sChannel, sQty, sPrice)
	case shapeJoin:
		// Join output: customers (id, segment) then sales (cust, price, qty).
		return fmt.Appendf(nil, `{"op":"aggregate","child":{"op":"hashjoin",`+
			`"left":{"op":"scan","table":"customers","cols":[%d,%d]},`+
			`"right":{"op":"scan","table":"sales","filter":%s,"cols":[%d,%d,%d]},"leftKey":0,"rightKey":0},`+
			`"groupBy":[1],"aggs":[`+
			`{"agg":"count","name":"n"},`+
			`{"agg":"sum","arg":{"expr":"col","attr":3,"type":"float64"},"name":"price"},`+
			`{"agg":"sum","arg":{"expr":"col","attr":4,"type":"int64"},"name":"qty"}]}`,
			cID, cSegment, lt, sCust, sPrice, sQty)
	default:
		return fmt.Appendf(nil, `{"op":"scan","table":"sales","filter":{"pred":"between","attr":%d,"lo":{"int":%d},"hi":{"int":%d}},"cols":[%d,%d,%d,%d,%d,%d]}`,
			sTS, q.a, q.b, sID, sTS, sRegion, sChannel, sPrice, sQty)
	}
}

func (q query) body() []byte { return fmt.Appendf(nil, `{"plan":%s}`, q.plan()) }

// expectRows is the oracle's row count for q.
func (d *dataset) expectRows(q query) int {
	switch q.shape {
	case shapeFiltered:
		return 1
	case shapeGroup:
		return nonEmpty(d.rc, q.a)
	case shapeJoin:
		return nonEmpty(d.seg, q.a)
	default:
		lo, hi := d.exportRange(q.a, q.b)
		return hi - lo
	}
}

func nonEmpty(groups []*prefix, c int64) int {
	n := 0
	for _, g := range groups {
		if g.below(c) > 0 {
			n++
		}
	}
	return n
}

// respJSON is the part of a query response the checks read. Cells stay
// raw so numbers are compared exactly.
type respJSON struct {
	Rows     [][]json.RawMessage `json:"rows"`
	RowCount int                 `json:"rowCount"`
}

// checkCount is the cheap check applied to every export in the timed
// phase: the status and the row count the response reports.
func (d *dataset) checkCount(q query, body []byte) error {
	n, err := rowCount(body)
	if err != nil {
		return err
	}
	if want := d.expectRows(q); n != want {
		return fmt.Errorf("%v: rowCount %d, want %d", q.shape, n, want)
	}
	return nil
}

// rowCount reads the "rowCount" field without decoding the rows.
func rowCount(body []byte) (int, error) {
	key := []byte(`"rowCount":`)
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return 0, errors.New("response has no rowCount")
	}
	rest := bytes.TrimLeft(body[i+len(key):], " ")
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}

// check compares a response against the oracle in full.
func (d *dataset) check(q query, body []byte) error {
	var r respJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%v: decoding response: %v", q.shape, err)
	}
	if want := d.expectRows(q); len(r.Rows) != want || r.RowCount != want {
		return fmt.Errorf("%v a=%d: %d rows (rowCount %d), want %d", q.shape, q.a, len(r.Rows), r.RowCount, want)
	}
	switch q.shape {
	case shapeFiltered:
		p := d.all
		n := p.below(q.a)
		return cells(r.Rows[0], n, p.qty[n], quarters(p.priceQ[n]), p.amount[n], quarters(p.priceQ[n])/float64(n))
	case shapeGroup:
		seen := make(map[int]bool)
		for _, row := range r.Rows {
			if len(row) != 5 {
				return fmt.Errorf("group-agg: row width %d, want 5", len(row))
			}
			ri, err1 := index(row[0], regions)
			ci, err2 := index(row[1], channels)
			if err := errors.Join(err1, err2); err != nil {
				return fmt.Errorf("group-agg: %v", err)
			}
			g := ri*len(channels) + ci
			if seen[g] {
				return fmt.Errorf("group-agg: group %s/%s twice", regions[ri], channels[ci])
			}
			seen[g] = true
			p := d.rc[g]
			n := p.below(q.a)
			if err := cells(row[2:], n, p.qty[n], quarters(p.priceQ[n])); err != nil {
				return fmt.Errorf("group-agg %s/%s: %v", regions[ri], channels[ci], err)
			}
		}
		return nil
	case shapeJoin:
		seen := make(map[int]bool)
		for _, row := range r.Rows {
			if len(row) != 4 {
				return fmt.Errorf("join-agg: row width %d, want 4", len(row))
			}
			si, err := index(row[0], segments)
			if err != nil {
				return fmt.Errorf("join-agg: %v", err)
			}
			if seen[si] {
				return fmt.Errorf("join-agg: segment %s twice", segments[si])
			}
			seen[si] = true
			p := d.seg[si]
			n := p.below(q.a)
			if err := cells(row[1:], n, quarters(p.priceQ[n]), p.qty[n]); err != nil {
				return fmt.Errorf("join-agg %s: %v", segments[si], err)
			}
		}
		return nil
	default:
		seen := make(map[int64]bool, len(r.Rows))
		for _, row := range r.Rows {
			if len(row) != 6 {
				return fmt.Errorf("export: row width %d, want 6", len(row))
			}
			id, err := strconv.ParseInt(string(row[0]), 10, 64)
			if err != nil || id < 0 || id >= salesRows || seen[id] {
				return fmt.Errorf("export: bad or repeated id %s", row[0])
			}
			seen[id] = true
			s := &d.sales[id]
			if s.ts < q.a || s.ts > q.b {
				return fmt.Errorf("export: id %d has ts %d outside [%d, %d]", id, s.ts, q.a, q.b)
			}
			if err := cells(row[1:], s.ts, regions[s.region], channels[s.channel], quarters(s.priceQ), s.qty); err != nil {
				return fmt.Errorf("export id %d: %v", id, err)
			}
		}
		return nil
	}
}

func quarters(q int64) float64 { return float64(q) / 4 }

// cells compares raw JSON cells with expected int, int64, float64 and
// string values.
func cells(row []json.RawMessage, want ...any) error {
	if len(row) < len(want) {
		return fmt.Errorf("%d cells, want %d", len(row), len(want))
	}
	for i, w := range want {
		raw := string(row[i])
		switch w := w.(type) {
		case int:
			if v, err := strconv.ParseInt(raw, 10, 64); err != nil || v != int64(w) {
				return fmt.Errorf("cell %d = %s, want %d", i, raw, w)
			}
		case int64:
			if v, err := strconv.ParseInt(raw, 10, 64); err != nil || v != w {
				return fmt.Errorf("cell %d = %s, want %d", i, raw, w)
			}
		case float64:
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil || math.Abs(v-w) > 1e-12*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("cell %d = %s, want %v", i, raw, w)
			}
		case string:
			if raw != strconv.Quote(w) {
				return fmt.Errorf("cell %d = %s, want %q", i, raw, w)
			}
		}
	}
	return nil
}

// index resolves a JSON string cell against a value list.
func index(raw json.RawMessage, values []string) (int, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, fmt.Errorf("cell %s is not a string", raw)
	}
	for i, v := range values {
		if v == s {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown value %q", s)
}

// insertBody is the plan of one events insert.
func insertBody(id, ts, val int64) []byte {
	return fmt.Appendf(nil, `{"plan":{"op":"insert","table":"events","rows":[[{"int":%d},{"int":%d},{"int":%d}]]}}`, id, ts, val)
}

// checkInsert verifies an insert response reports one row inserted.
func checkInsert(body []byte) error {
	var r respJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("insert: decoding response: %v", err)
	}
	if len(r.Rows) != 1 {
		return fmt.Errorf("insert: %d result rows, want 1", len(r.Rows))
	}
	return cells(r.Rows[0], 1)
}

// eventIDsBody reads every events id back.
var eventIDsBody = []byte(`{"plan":{"op":"scan","table":"events","cols":[0]}}`)

func eventIDs(body []byte) ([]int64, error) {
	var r respJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("events: decoding response: %v", err)
	}
	ids := make([]int64, len(r.Rows))
	for i, row := range r.Rows {
		v, err := strconv.ParseInt(string(row[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("events: id %s: %v", row[0], err)
		}
		ids[i] = v
	}
	return ids, nil
}
