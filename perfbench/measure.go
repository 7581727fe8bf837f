package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"erfilter/internal/metrics"
	"erfilter/internal/serve"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, reporting 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loopStats are the outcomes of one closed-loop client group.
type loopStats struct {
	lat     []float64 // per completed request, ms
	n       int       // requests attempted
	failed  int
	elapsed time.Duration
	errs    []string
}

// primary records the figures of the workload's primary request.
func (s *loopStats) primary(r *result) {
	r.e2e["p50_ms"] = quantile(s.lat, 0.50)
	r.e2e["p99_ms"] = quantile(s.lat, 0.99)
	r.e2e["ops_s"] = float64(len(s.lat)) / s.elapsed.Seconds()
}

func (s *loopStats) summary(name string) string {
	return fmt.Sprintf("%s: n=%d failed=%d p50=%.4g ms p99=%.4g ms rate=%.5g 1/s",
		name, s.n, s.failed, quantile(s.lat, 0.5), quantile(s.lat, 0.99), float64(len(s.lat))/s.elapsed.Seconds())
}

// errDone ends a closed-loop client early: its fixed amount of work is
// done.
var errDone = errors.New("done")

// closedLoop runs clients goroutines that each issue op back to back —
// the next request only after the previous one completed — until d has
// elapsed or op returns errDone, and merges their latencies. seq numbers
// requests across all clients, so the clients share one input stream.
func closedLoop(clients int, d time.Duration, op func(seq int) error) *loopStats {
	var seq atomic.Int64
	var wg sync.WaitGroup
	per := make([]loopStats, clients)
	begin := time.Now()
	deadline := begin.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(seq.Add(1) - 1)
				t0 := time.Now()
				err := op(i)
				if err == errDone {
					return
				}
				st.n++
				if err != nil {
					st.failed++
					if len(st.errs) < 5 {
						st.errs = append(st.errs, err.Error())
					}
					continue
				}
				st.lat = append(st.lat, ms(time.Since(t0)))
			}
		}(&per[c])
	}
	wg.Wait()
	out := &loopStats{elapsed: time.Since(begin)}
	for _, st := range per {
		out.lat = append(out.lat, st.lat...)
		out.n += st.n
		out.failed += st.failed
		out.errs = append(out.errs, st.errs...)
	}
	return out
}

// count folds a loop's requests into the result's attempted/failed
// tallies.
func (r *result) count(s *loopStats, name string) {
	r.attempted += s.n
	r.failed += s.failed
	for _, e := range s.errs {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, name+": "+e)
		}
	}
}

// setupMedian builds the serving state n times and returns the last
// build with the median build time in seconds; earlier builds are
// dropped as soon as the next one is timed. Only build is timed.
func setupMedian[T any](n int, build func() (T, time.Duration, error), drop func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(cur)
		}
		runtime.GC()
		v, d, err := build()
		if err != nil {
			return cur, 0, err
		}
		cur = v
		times = append(times, d.Seconds())
	}
	return cur, median(times), nil
}

// heapLiveMiB is the live heap after a full collection, in MiB. The
// second collection empties the sync.Pools, whose contents depend on
// how many goroutines happened to use them at once.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// allocBytes reports the heap bytes fn allocates. Callers replay with
// the collector off (see replayMode) so pooled buffers are not dropped
// between calls and the count repeats exactly.
func allocBytes(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc)
}

// replayMode turns the collector off and runs on one processor for a
// layer-by-layer replay, so pooled buffers are neither dropped nor
// stranded on another processor's pool and allocation counts repeat
// exactly. It returns the function restoring both.
func replayMode() func() {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(old)
		runtime.GC()
	}
}

// server is the serve handler mounted on a loopback listener, as erserve
// mounts it. While tr is set (the traced half of a --trace 1 run) every
// request is recorded as a span.
type server struct {
	handler http.Handler
	hs      *http.Server
	url     string
	done    chan error
	tr      atomic.Pointer[tracer]
}

// startServer builds the serve handler over the backend and serves it
// on 127.0.0.1.
func startServer(res serve.Resolver, store serve.Store, opt serve.Options) (*server, error) {
	s := &server{handler: serve.NewServer(res, store, opt).Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t := s.tr.Load(); t != nil {
			parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			t.timed("serve.http", parent, parent, func() { s.handler.ServeHTTP(w, r) })
			return
		}
		s.handler.ServeHTTP(w, r)
	})
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.url = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// runLoad drives the workload's load. Untraced runs measure one phase
// of p.seconds. Traced runs measure an untraced and a traced phase of
// half that each and return the relative p50 cost of tracing on the
// primary request. load returns the primary client group first.
func runLoad(p params, srv *server, load func(d time.Duration, tr *tracer) []*loopStats) ([]*loopStats, *tracer, float64) {
	if !p.trace {
		return load(p.seconds, nil), nil, 0
	}
	base := load(p.seconds/2, nil)
	tr := newTracer()
	srv.tr.Store(tr)
	traced := load(p.seconds/2, tr)
	srv.tr.Store(nil)
	for i := range traced {
		traced[i].n += base[i].n
		traced[i].failed += base[i].failed
		traced[i].errs = append(base[i].errs, traced[i].errs...)
	}
	return traced, tr, ratio(median(traced[0].lat), median(base[0].lat)) - 1
}

// close shuts the listener down and waits for the serve goroutine.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// client is the load generator's HTTP client: keep-alive connections,
// one per closed-loop client.
type client struct {
	hc  *http.Client
	tr  *tracer // nil when untraced
	url string
}

func newClient(url string, conns int, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		tr: tr, url: url,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON request and returns the body of a 200 answer.
func (c *client) post(path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	var begin time.Time
	if c.tr != nil {
		id, begin = c.tr.newID(), time.Now()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.add(span{ID: id, Req: id, Name: "client." + strings.TrimPrefix(path, "/v1/")}, begin, time.Now())
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// serveInProcess runs one request through the handler in-process and
// returns the recorded response.
func serveInProcess(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// scrape reads the registry's exposition text and sums every series of
// a family across its label sets, keyed by sample name (histograms
// contribute their _sum and _count samples).
func scrape(reg *metrics.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir whose names
// satisfy keep.
func dirBytes(dir string, keep func(name string) bool) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && keep(d.Name()) {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// spanHeader carries the client span id to the server-side middleware.
const spanHeader = "X-Perfbench-Span"

// span is one timed call at a layer boundary. Parent names the span of
// the layer that makes this call on the same input; Req groups the
// spans of one input.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.next.Add(1) }

// add records a span that ran from begin to end.
func (t *tracer) add(s span, begin, end time.Time) {
	s.Start = int64(begin.Sub(t.t0))
	s.End = int64(end.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as a span named name under parent and returns its id.
func (t *tracer) timed(name string, parent, req int64, fn func()) int64 {
	id := t.newID()
	begin := time.Now()
	fn()
	t.add(span{ID: id, Parent: parent, Req: req, Name: name}, begin, time.Now())
	return id
}

// layerTimes summarizes the replay spans: the median duration and the
// median self time (duration minus the durations of the spans parented
// to it) of every span name, in microseconds.
func (t *tracer) layerTimes() (dur, self map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], us(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], us(s.dur()-child[s.ID]))
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for n, v := range durs {
		dur[n] = median(v)
		self[n] = median(selfs[n])
	}
	return dur, self
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
