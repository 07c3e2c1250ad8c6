package main

// client.go is the load generator: closed-loop readers that each own one
// connection and cycle through a fixed request sequence, and the open-loop
// writer of mixed_update.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// sample is one finished request.
type sample struct {
	req    int       // index into the workload's requests; -1 for an update
	start  time.Time // send time; for an update, the time it was due
	latMs  float64   // start to last body byte
	ttfbMs float64   // start to first body byte
	lateMs float64   // updates only: how long after its due time it was sent
	err    error
}

// conn is one client connection.
type conn struct {
	hc  *http.Client
	buf []byte
}

func newConn() *conn {
	return &conn{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:    1,
			DisableCompression: true,
		}},
		buf: make([]byte, 0, 4<<20),
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends req and reads the whole response into c.buf, which the returned
// body aliases until the next call.
func (c *conn) do(req *http.Request) (body []byte, ttfb time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	buf := c.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := resp.Body.Read(buf[len(buf):cap(buf)])
		if n > 0 && ttfb == 0 {
			ttfb = time.Since(t0)
		}
		buf = buf[:len(buf)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, 0, rerr
		}
	}
	c.buf = buf
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(buf)))
	}
	if e := resp.Trailer.Get("X-Error"); e != "" {
		return nil, 0, fmt.Errorf("X-Error trailer: %s", e)
	}
	return buf, ttfb, nil
}

// queryURL is the GET URL of r against base.
func queryURL(base string, r request) *url.URL {
	v := url.Values{"query": {r.text}}
	if r.tsv {
		v.Set("format", "tsv")
	}
	u, err := url.Parse(base + "/query?" + v.Encode())
	if err != nil {
		panic(err) // base is this program's own loopback address
	}
	return u
}

func getRequest(u *url.URL) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: u, Host: u.Host, Header: http.Header{}}
}

// reader sends cycle's requests in order from offset, one at a time, until
// deadline has passed, and returns one sample per request. check validates
// a response body.
func reader(urls []*url.URL, cycle []int, offset int, deadline time.Time, check func(req int, body []byte) error) []sample {
	c := newConn()
	defer c.close()
	var out []sample
	for i := offset; time.Now().Before(deadline); i++ {
		req := cycle[i%len(cycle)]
		s := sample{req: req, start: time.Now()}
		body, ttfb, err := c.do(getRequest(urls[req]))
		s.latMs = ms(time.Since(s.start))
		s.ttfbMs = ms(ttfb)
		if err == nil {
			err = check(req, body)
		}
		s.err = err
		out = append(out, s)
	}
	return out
}

// writer posts patches[i] at start + i×interval whether or not the previous
// one has been answered in time — when it has not, the patch goes out late
// and its latency still counts from its due time. It stops at the first
// patch due after deadline and returns one sample per patch sent.
func writer(base string, patches []string, start time.Time, interval time.Duration, deadline time.Time) []sample {
	c := newConn()
	defer c.close()
	u, err := url.Parse(base + "/update")
	if err != nil {
		panic(err)
	}
	var out []sample
	for i, p := range patches {
		due := start.Add(time.Duration(i) * interval)
		if due.After(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		req := &http.Request{Method: http.MethodPost, URL: u, Host: u.Host, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(p)), ContentLength: int64(len(p))}
		body, _, err := c.do(req)
		s := sample{req: -1, start: due, latMs: ms(time.Since(due)), lateMs: ms(sent.Sub(due)), err: err}
		if err == nil && !strings.Contains(string(body), `"noops":0`) {
			s.err = errors.New("update not applied in full: " + strings.TrimSpace(string(body)))
		}
		out = append(out, s)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
