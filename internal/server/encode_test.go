package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// oracleJSONString is the encoder the server used before the result path
// was rebuilt on blocks: encoding/json with HTML escaping off.
func oracleJSONString(s string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	return b[:len(b)-1] // Encode appends a newline; drop it
}

var jsonStringSeeds = []string{
	"",
	"<http://example.org/a>",
	`"plain literal"`,
	`"say \"hi\""@en`,
	`back\slash`,
	"tab\tnewline\ncr\rbell\abackspace\bformfeed\fnul\x00unit\x1fdel\x7f",
	"html <b>&amp;</b>",
	"line sep\u2028 para sep\u2029",
	"héllo wörld ☃ 😀",
	"\xff\xfe invalid \xc3",
	"truncated rune \xe2\x82",
	"surrogate half \xed\xa0\x80",
}

func checkJSONString(t *testing.T, s string) {
	t.Helper()
	got := appendJSONString(nil, []byte(s))
	if want := oracleJSONString(s); !bytes.Equal(got, want) {
		t.Fatalf("appendJSONString(%q)\n got %s\nwant %s", s, got, want)
	}
	// Appending must extend dst, not restart it.
	if pre := appendJSONString([]byte("x"), []byte(s)); !bytes.Equal(pre[1:], got) || pre[0] != 'x' {
		t.Fatalf("appendJSONString(%q) clobbered its prefix: %s", s, pre)
	}
}

// TestJSONStringMatchesEncodingJSON: the hand-rolled escaper is
// byte-identical to encoding/json (EscapeHTML off) on the seed corpus and
// on every single byte and every two-byte combination around the escapes.
func TestJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range jsonStringSeeds {
		checkJSONString(t, s)
	}
	for b := 0; b < 256; b++ {
		checkJSONString(t, string([]byte{byte(b)}))
		checkJSONString(t, string([]byte{'a', byte(b), 'z'}))
		checkJSONString(t, string([]byte{0xe2, 0x80, byte(b)})) // U+2028/9 and neighbours
	}
}

func FuzzJSONString(f *testing.F) {
	for _, s := range jsonStringSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkJSONString(t, s) })
}

// oracleWriteJSON and oracleWriteTSV are the response encoders as they were
// before the block contract, kept as the reference the new ones must match
// byte for byte: one row at a time through Next, every term decoded and
// rendered through rdf.Term.String, every JSON cell through encoding/json.
func oracleWriteJSON(w io.Writer, vars []string, cur engine.Cursor, d *dict.Dictionary, meta queryMeta, tookMs float64) {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"vars":[`)
	for i, v := range vars {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(oracleJSONString(v))
	}
	bw.WriteString(`]`)
	if meta.QueryID != "" {
		bw.WriteString(`,"id":"` + meta.QueryID + `"`)
	}
	bw.WriteString(`,"engine":`)
	bw.Write(oracleJSONString(meta.Engine))
	bw.WriteString(`,"cache":"` + meta.Cache + `","rows":[`)
	rows := 0
	for {
		row, err := cur.Next()
		if err != nil {
			break
		}
		if rows > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('[')
		for j, id := range row {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.Write(oracleJSONString(d.Decode(id).String()))
		}
		bw.WriteByte(']')
		rows++
	}
	bw.WriteString(`],"count":`)
	cb, _ := json.Marshal(rows)
	bw.Write(cb)
	if cur.Truncated() {
		bw.WriteString(`,"truncated":true`)
	}
	bw.WriteString(`,"took_ms":`)
	tb, _ := json.Marshal(tookMs)
	bw.Write(tb)
	bw.WriteString("}\n")
	bw.Flush()
}

func oracleWriteTSV(w io.Writer, vars []string, cur engine.Cursor, d *dict.Dictionary) {
	bw := bufio.NewWriter(w)
	for i, v := range vars {
		if i > 0 {
			bw.WriteByte('\t')
		}
		bw.WriteString("?" + v)
	}
	bw.WriteByte('\n')
	for {
		row, err := cur.Next()
		if err != nil {
			break
		}
		for j, id := range row {
			if j > 0 {
				bw.WriteByte('\t')
			}
			bw.WriteString(d.Decode(id).String())
		}
		bw.WriteByte('\n')
	}
	bw.Flush()
}

// literalStore is a fixture whose objects exercise every escaping path:
// quotes, backslashes, control bytes, non-ASCII, U+2028, invalid UTF-8,
// language tags, datatypes and blank nodes.
func literalStore() *store.Store {
	b := store.NewBuilder()
	p := rdf.NewIRI("http://ex/says")
	objects := []rdf.Term{
		rdf.NewLiteral("plain"),
		rdf.NewLiteral(`say "hi"`),
		rdf.NewLiteral(`back\slash`),
		rdf.NewLiteral("tab\tnewline\ncr\r"),
		rdf.NewLiteral("bell\a backspace\b formfeed\f nul\x00"),
		rdf.NewLiteral("héllo ☃ 😀"),
		rdf.NewLiteral("line\u2028para\u2029"),
		rdf.NewLiteral("bad utf8 \xff\xc3"),
		rdf.NewLiteral("<b>&amp;</b>"),
		rdf.NewLangLiteral("bonjour", "fr"),
		rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		rdf.NewBlank("b0"),
		rdf.NewIRI("http://ex/ünï"),
	}
	// Enough rows to span several blocks and more than one buffer flush.
	for i := 0; i < 2000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		b.Add(rdf.Triple{S: s, P: p, O: objects[i%len(objects)]})
		b.Add(rdf.Triple{S: s, P: p, O: rdf.NewLiteral(fmt.Sprintf("n\"%d\"", i))})
	}
	return b.Build()
}

var (
	idField   = regexp.MustCompile(`"id":"[a-z0-9]+"`)
	tookField = regexp.MustCompile(`"took_ms":[0-9.e+-]+`)
)

// TestResponseBodiesMatchOldEncoder: JSON and TSV bodies served through the
// handler for q8, q14 and the literal-heavy fixture are byte-identical to
// the old encoder's, modulo the query id and took_ms.
func TestResponseBodiesMatchOldEncoder(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *store.Store
		text string
	}{
		{"q8", lubmScale1(), lubm.Query(8, 1)},
		{"q14", lubmScale1(), lubm.Query(14, 1)},
		{"literals", literalStore(), `SELECT ?s ?o WHERE { ?s <http://ex/says> ?o }`},
		{"literals_limit", literalStore(), `SELECT ?o WHERE { ?s <http://ex/says> ?o } LIMIT 300`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.st, Config{})
			parsed, err := query.ParseSPARQL(tc.text)
			if err != nil {
				t.Fatal(err)
			}
			q, _ := query.Normalize(parsed)
			eng, err := engines.New("emptyheaded", tc.st)
			if err != nil {
				t.Fatal(err)
			}
			open := func() engine.Cursor {
				cur, err := eng.Open(q, engine.ExecOpts{MaxRows: parsed.Limit})
				if err != nil {
					t.Fatal(err)
				}
				return cur
			}

			code, got := get(t, queryURL(ts.URL, tc.text, nil))
			if code != http.StatusOK {
				t.Fatalf("json: status %d, body %.300s", code, got)
			}
			var want bytes.Buffer
			cur := open()
			oracleWriteJSON(&want, parsed.Select, cur, tc.st.Dict(), queryMeta{QueryID: "q0", Engine: "emptyheaded", Cache: "miss"}, 0)
			cur.Close()
			norm := func(b string) string {
				return tookField.ReplaceAllString(idField.ReplaceAllString(b, `"id":"_"`), `"took_ms":0`)
			}
			if g, w := norm(got), norm(want.String()); g != w {
				t.Fatalf("JSON body differs from the old encoder's\n got %.400s\nwant %.400s", g, w)
			}

			code, got = get(t, queryURL(ts.URL, tc.text, map[string]string{"format": "tsv"}))
			if code != http.StatusOK {
				t.Fatalf("tsv: status %d, body %.300s", code, got)
			}
			want.Reset()
			cur = open()
			oracleWriteTSV(&want, parsed.Select, cur, tc.st.Dict())
			cur.Close()
			if got != want.String() {
				t.Fatalf("TSV body differs from the old encoder's\n got %.400s\nwant %.400s", got, want.String())
			}
		})
	}
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(s int)           { d.status = s }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestAllocsPerRow is the gate on the result path: a 20,000-row
// single-column scan through Server.Handler() allocates less than 0.1
// times per row in either format — per-request setup only, nothing per row
// or per cell. CI runs it on its own without the race detector, under
// which allocation counts mean nothing.
func TestAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const rows = 20000
	b := store.NewBuilder()
	p, o := rdf.NewIRI("http://ex/type"), rdf.NewIRI("http://ex/Thing")
	for i := 0; i < rows; i++ {
		b.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/thing/%d", i)), P: p, O: o})
	}
	s, err := New(Config{Store: b.Build(), TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	text := `SELECT ?s WHERE { ?s <http://ex/type> <http://ex/Thing> }`
	for _, format := range []string{"json", "tsv"} {
		req := httptest.NewRequest(http.MethodGet, queryURL("http://alloc", text, map[string]string{"format": format}), nil)
		serve := func() {
			w := &discardWriter{h: http.Header{}, status: http.StatusOK}
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n < rows*len("<http://ex/thing/0>") {
				t.Fatalf("%s: status %d, %d body bytes", format, w.status, w.n)
			}
		}
		serve() // plan-cache miss and lazy index builds happen here
		perRow := testing.AllocsPerRun(5, serve) / rows
		t.Logf("%s: %.4f allocs/row", format, perRow)
		if perRow >= 0.1 {
			t.Errorf("%s: %.3f allocs/row through the handler, want < 0.1", format, perRow)
		}
	}
}

// TestEncodeBytesPerRequest: a one-row response through Server.Handler()
// allocates less than 8 KB per request in either format. The encoders'
// output buffer (40 KB) comes from a pool; allocated per response, it was
// most of what a small query cost the collector. CI runs it beside
// TestAllocsPerRow, without the race detector.
func TestEncodeBytesPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	b := store.NewBuilder()
	b.Add(rdf.Triple{S: rdf.NewIRI("http://ex/thing/0"), P: rdf.NewIRI("http://ex/type"), O: rdf.NewIRI("http://ex/Thing")})
	s, err := New(Config{Store: b.Build(), TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	text := `SELECT ?s WHERE { ?s <http://ex/type> <http://ex/Thing> }`
	for _, format := range []string{"json", "tsv"} {
		req := httptest.NewRequest(http.MethodGet, queryURL("http://alloc", text, map[string]string{"format": format}), nil)
		serve := func() {
			w := &discardWriter{h: http.Header{}, status: http.StatusOK}
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n < len("<http://ex/thing/0>") {
				t.Fatalf("%s: status %d, %d body bytes", format, w.status, w.n)
			}
		}
		serve() // plan-cache miss and lazy index builds happen here
		const requests = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range requests {
			serve()
		}
		runtime.ReadMemStats(&after)
		perReq := (after.TotalAlloc - before.TotalAlloc) / requests
		t.Logf("%s: %d bytes/request", format, perReq)
		if perReq >= 8<<10 {
			t.Errorf("%s: %d bytes allocated per one-row request, want < 8 KB", format, perReq)
		}
	}
}

// TestLimitZeroTSVTrailer: LIMIT 0 serves no rows in TSV too, and the
// X-Truncated trailer still says whether a solution existed.
func TestLimitZeroTSVTrailer(t *testing.T) {
	_, ts := newTestServer(t, denseStore(6), Config{MaxRows: -1})
	for _, tc := range []struct {
		text      string
		truncated string
	}{
		{triangleQuery + " LIMIT 0", "true"},
		{`SELECT ?x WHERE { <http://ex/n0> <http://ex/nope> ?x } LIMIT 0`, ""},
	} {
		resp, err := http.Get(queryURL(ts.URL, tc.text, map[string]string{"format": "tsv"}))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if lines := bytes.Count(body, []byte("\n")); lines != 1 {
			t.Fatalf("%q: %d lines, want the header only: %q", tc.text, lines, body)
		}
		if got := resp.Trailer.Get("X-Truncated"); got != tc.truncated {
			t.Fatalf("%q: X-Truncated = %q, want %q", tc.text, got, tc.truncated)
		}
	}
}

// TestEncodeSpanCountsPerBlock: the encode span's rows are counted as each
// block is written, so first_row_us is the first block's write time, not
// the span's whole duration, and the execute span sees the same row count
// without a per-row wrapper.
func TestEncodeSpanCountsPerBlock(t *testing.T) {
	_, ts := newTestServer(t, literalStore(), Config{})
	code, body := get(t, queryURL(ts.URL, `SELECT ?s ?o WHERE { ?s <http://ex/says> ?o }`, map[string]string{"explain": "1"}))
	if code != http.StatusOK {
		t.Fatalf("status %d, body %.300s", code, body)
	}
	var out explainBody
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	spans := map[string]obs.SpanSnapshot{}
	for _, sp := range out.Trace.Root.Children {
		spans[sp.Name] = sp
	}
	enc, exec := spans["encode"], spans["execute"]
	if enc.Rows != int64(out.Count) || exec.Rows != int64(out.Count) || out.Count != 4000 {
		t.Fatalf("rows: encode %d, execute %d, count %d", enc.Rows, exec.Rows, out.Count)
	}
	// 4000 rows are at least 32 blocks; the first is a small share of them.
	if enc.FirstRowUs <= 0 || enc.FirstRowUs > enc.DurationUs/2 {
		t.Fatalf("encode first_row_us = %v of a %v µs span", enc.FirstRowUs, enc.DurationUs)
	}
}
