package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// connections is the number of concurrent closed-loop callers, each on
// its own keep-alive connection: one per CPU of the benchmark host.
const connections = 2

// client drives ccserved over real TCP. It is deliberately not
// internal/client: that client retries, which would turn a 503 into
// latency and hide the failure. Every request here is sent once.
type client struct {
	hc    *http.Client
	dials atomic.Int64
}

func newClient() *client {
	c := &client{}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
			MaxIdleConns:        2 * connections,
			MaxIdleConnsPerHost: connections,
			MaxConnsPerHost:     connections,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one response, its body read in full into the caller's
// buffer.
type reply struct {
	status int
	header http.Header
	body   []byte
	lat    time.Duration
}

// do sends one request and reads the whole response into buf. The
// latency runs from just before the request is written until the last
// body byte is read.
func (c *client) do(method, url string, body []byte, buf *bytes.Buffer) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/xml")
	}
	buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: buf.Bytes(), lat: lat}, nil
}

// outcome is the result of one operation.
type outcome struct {
	lat   time.Duration
	label int   // workload-specific class (operation kind, route)
	err   error // non-nil when the operation failed any check
}

// sample is one recorded operation.
type sample struct {
	index  int
	done   time.Time // when the operation completed
	lat    time.Duration
	label  int
	failed bool
}

// phase is the record of one closed-loop phase.
type phase struct {
	samples []sample
	elapsed time.Duration
	next    int     // first operation index the phase did not hand out
	errs    []error // the first few failures, for the report
}

// runPhase runs op over the given callers in a closed loop: each caller
// takes the next operation index, runs it to completion, and only then
// takes another. Callers stop once stop(index) reports true; the phase
// ends when the last in-flight operation has finished. Indices start at
// first and are handed out in order.
func runPhase(callers, first int, stop func(i int) bool, op func(w, i int) outcome) phase {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  phase
	)
	next.Store(int64(first))
	per := make([][]sample, callers)
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					return
				}
				o := op(w, i)
				per[w] = append(per[w], sample{index: i, done: time.Now(), lat: o.lat, label: o.label, failed: o.err != nil})
				if o.err != nil {
					mu.Lock()
					if len(out.errs) < 5 {
						out.errs = append(out.errs, fmt.Errorf("op %d: %w", i, o.err))
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.next = int(next.Load())
	for _, s := range per {
		out.samples = append(out.samples, s...)
	}
	return out
}

// failures counts failed operations.
func (p phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// lats returns the latencies of the operations with the given label
// (all operations when label < 0), failed ones excluded.
func (p phase) lats(label int) latencies {
	var l latencies
	for _, s := range p.samples {
		if !s.failed && (label < 0 || s.label == label) {
			l = append(l, s.lat)
		}
	}
	return l
}

// until returns a stop function for a phase that ends at end.
func until(end time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(end) }
}

// count returns a stop function for a phase of exactly n operations
// starting at index first.
func count(first, n int) func(int) bool {
	return func(i int) bool { return i >= first+n }
}
