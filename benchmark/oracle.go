package main

// oracle.go answers every query text with the naive engine, in this process
// and on the same generated triples, and compares the server's responses
// against it as order-free row multisets.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"repro/internal/engine"
	"repro/internal/engine/naive"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

type oracle struct {
	st  *store.Store
	eng *naive.Engine
}

func newOracle(triples []rdf.Triple) *oracle {
	b := store.NewBuilder()
	b.AddAll(triples)
	st := b.Build()
	return &oracle{st: st, eng: naive.New(st)}
}

// expect is what a correct response to one query text holds.
type expect struct {
	count int
	// sum is the wrapping sum of the row hashes: equal multisets have equal
	// sums in any order.
	sum uint64
	// rows is set for LIMIT queries only, whose answer may be any count-sized
	// part of the full result: hash → multiplicity in the full result.
	rows map[uint64]int
}

func rowHash(terms []string) uint64 {
	h := fnv.New64a()
	for i, t := range terms {
		if i > 0 {
			h.Write([]byte{'\t'})
		}
		io.WriteString(h, t)
	}
	return h.Sum64()
}

// expect runs text on the naive engine.
func (o *oracle) expect(text string) (expect, error) {
	q, err := query.ParseSPARQL(text)
	if err != nil {
		return expect{}, err
	}
	cur, err := o.eng.Open(q, engine.ExecOpts{})
	if err != nil {
		return expect{}, err
	}
	defer cur.Close()
	var e expect
	if q.HasLimit {
		e.rows = map[uint64]int{}
	}
	d := o.st.Dict()
	memo := map[uint32]string{}
	terms := make([]string, len(q.Select))
	for {
		row, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return expect{}, err
		}
		for i, id := range row {
			s, ok := memo[id]
			if !ok {
				s = d.Decode(id).String()
				memo[id] = s
			}
			terms[i] = s
		}
		h := rowHash(terms)
		e.count++
		e.sum += h
		if e.rows != nil {
			e.rows[h]++
		}
	}
	if q.HasLimit && e.count > q.Limit {
		e.count = q.Limit
	}
	return e, nil
}

// parseBody splits a /query response into rows of term renderings.
func parseBody(body []byte, tsv bool) ([][]string, error) {
	if tsv {
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		rows := make([][]string, 0, len(lines)-1)
		for _, l := range lines[1:] { // lines[0] is the ?var header
			rows = append(rows, strings.Split(l, "\t"))
		}
		return rows, nil
	}
	var doc struct {
		Rows  [][]string `json:"rows"`
		Count int        `json:"count"`
		Error string     `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding JSON response: %w", err)
	}
	if doc.Error != "" {
		return nil, fmt.Errorf("response carries error %q", doc.Error)
	}
	if doc.Count != len(doc.Rows) {
		return nil, fmt.Errorf("count field %d but %d rows", doc.Count, len(doc.Rows))
	}
	return doc.Rows, nil
}

// check compares a full response body against e.
func (e expect) check(body []byte, tsv bool) error {
	rows, err := parseBody(body, tsv)
	if err != nil {
		return err
	}
	if len(rows) != e.count {
		return fmt.Errorf("%d rows, oracle has %d", len(rows), e.count)
	}
	var sum uint64
	seen := map[uint64]int{}
	for _, r := range rows {
		h := rowHash(r)
		sum += h
		if e.rows != nil {
			seen[h]++
			if seen[h] > e.rows[h] {
				return fmt.Errorf("row %q is not in the oracle's result", strings.Join(r, " "))
			}
		}
	}
	if e.rows == nil && sum != e.sum {
		return fmt.Errorf("%d rows match the oracle's count but not its rows", len(rows))
	}
	return nil
}

// tailCount reads the row count off a response without decoding it: the
// "count" field of a JSON tail, or the line count of a TSV body.
func tailCount(body []byte, tsv bool) (int, error) {
	if tsv {
		return bytes.Count(body, []byte{'\n'}) - 1, nil
	}
	tail := body
	if len(tail) > 512 {
		tail = tail[len(tail)-512:]
	}
	i := bytes.LastIndex(tail, []byte(`],"count":`))
	if i < 0 {
		return 0, fmt.Errorf("no count field in the response tail")
	}
	tail = tail[i+len(`],"count":`):]
	if bytes.Contains(tail, []byte(`"error":`)) {
		return 0, fmt.Errorf("response tail carries an error: %s", tail)
	}
	n := 0
	for _, c := range tail {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// applyPatches returns base with the patch bodies applied in order, as a set.
func applyPatches(base []rdf.Triple, patches []string) ([]rdf.Triple, error) {
	state := map[rdf.Triple]bool{} // touched triples → present
	for _, p := range patches {
		for _, line := range strings.Split(strings.TrimSpace(p), "\n") {
			t, err := rdf.ParseTriple(line[1:])
			if err != nil {
				return nil, fmt.Errorf("patch line %q: %w", line, err)
			}
			state[t] = line[0] == '+'
		}
	}
	out := make([]rdf.Triple, 0, len(base)+len(state))
	inBase := map[rdf.Triple]bool{}
	for _, t := range base {
		present, touched := state[t]
		if touched {
			inBase[t] = true
		}
		if !touched || present {
			out = append(out, t)
		}
	}
	for t, present := range state {
		if present && !inBase[t] {
			out = append(out, t)
		}
	}
	return out, nil
}
