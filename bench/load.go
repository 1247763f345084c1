package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// reply is what the load generator keeps of one HTTP response. body aliases
// the client's read buffer and is valid until the client's next request.
type reply struct {
	status   int
	strategy string // X-Trance-Strategy
	body     []byte
	latency  time.Duration
}

// topField extracts a top-level numeric field from one of tranced's indented
// JSON objects without decoding the (possibly large) body: top-level keys sit
// at exactly two spaces of indentation, nested ones deeper.
func topField(body []byte, name string) (float64, bool) {
	pat := []byte("\n  \"" + name + "\": ")
	i := bytes.LastIndex(body, pat)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(pat):]
	end := bytes.IndexAny(rest, ",\n")
	if end < 0 {
		end = len(rest)
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

// op is one request of a workload. check decides whether the reply counts as
// a failed operation; verify, when set, is the expensive full-answer check a
// cold start runs after its timer has stopped.
type op struct {
	kind   int
	method string
	path   string
	body   string
	check  func(*reply) error
	verify func(*reply) error
}

// client is one closed-loop caller: a single keep-alive connection and a
// reused read buffer.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one op and reads the whole reply; latency runs from before the
// request is written until the last body byte is read.
func (c *client) do(o *op) (*reply, error) {
	var body io.Reader
	if o.body != "" {
		body = strings.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+o.path, body)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, strategy: resp.Header.Get("X-Trance-Strategy"), body: c.buf.Bytes(), latency: lat}, nil
}

// sample is one timed operation.
type sample struct {
	kind      int
	latencyMs float64
	engineMs  float64 // the reply's elapsed_ms; -1 when it has none
	bytes     int
	speed     float64 // of the host during the op's round; set by runWorkload
}

// roundResult is one closed-loop round.
type roundResult struct {
	wall     time.Duration
	samples  []sample
	failures []string
}

// runRound drives one op list per client concurrently and waits for all.
func runRound(clients []*client, lists [][]op) roundResult {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		res roundResult
	)
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, ops []op) {
			defer wg.Done()
			samples := make([]sample, 0, len(ops))
			var failures []string
			for i := range ops {
				o := &ops[i]
				r, err := c.do(o)
				if err == nil {
					err = o.check(r)
				}
				if err != nil {
					failures = append(failures, fmt.Sprintf("%s %s: %v", o.method, o.path, err))
					continue
				}
				eng, ok := topField(r.body, "elapsed_ms")
				if !ok {
					eng = -1
				}
				samples = append(samples, sample{kind: o.kind, latencyMs: ms(r.latency), engineMs: eng, bytes: len(r.body)})
			}
			mu.Lock()
			res.samples = append(res.samples, samples...)
			res.failures = append(res.failures, failures...)
			mu.Unlock()
		}(c, lists[i])
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// coldStart is one measured launch of tranced up to its first verified
// answers.
type coldStart struct {
	srv         *server
	total       time.Duration // launch → every kind answered once
	healthy     time.Duration // launch → /healthz 200
	firstAnswer time.Duration // /healthz 200 → every kind answered once (uploads included)
}

// runColdStart launches tranced, waits for /healthz, runs the workload's
// set-up requests and fetches every kind once. The timer stops there; the
// answers are verified afterwards. On success the server is left running.
func runColdStart(bin, logPath string, w *workload) (*coldStart, error) {
	c := newClient("")
	defer c.close()
	start := time.Now()
	srv, err := startServer(bin, w.serverArgs, logPath)
	if err != nil {
		return nil, err
	}
	c.base = srv.base
	fail := func(err error) (*coldStart, error) {
		srv.stop()
		return nil, err
	}
	if err := srv.waitHealthy(c.hc, 60*time.Second); err != nil {
		return fail(err)
	}
	healthy := time.Since(start)
	for _, o := range w.setup() {
		r, err := c.do(&o)
		if err == nil {
			err = o.check(r)
		}
		if err != nil {
			return fail(fmt.Errorf("set-up %s %s: %w", o.method, o.path, err))
		}
	}
	first := w.first()
	replies := make([]reply, len(first))
	for i := range first {
		r, err := c.do(&first[i])
		if err != nil {
			return fail(fmt.Errorf("first %s: %w", w.kinds[first[i].kind], err))
		}
		replies[i] = *r
		replies[i].body = append([]byte(nil), r.body...)
	}
	total := time.Since(start)
	for i := range first {
		o := &first[i]
		err := o.check(&replies[i])
		if err == nil && o.verify != nil {
			err = o.verify(&replies[i])
		}
		if err != nil {
			return fail(fmt.Errorf("first %s: %w", w.kinds[o.kind], err))
		}
	}
	return &coldStart{srv: srv, total: total, healthy: healthy, firstAnswer: total - healthy}, nil
}
