package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deep500/d500"
	"deep500/internal/models"
	"deep500/internal/serve"
	"deep500/internal/tensor"
)

// serveMode is one serving workload.
type serveMode struct {
	http bool
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// slots bounds requests in flight: the keep-alive connections over
	// HTTP, the admission queue depth in process (so the queue never
	// refuses; overload shows as generator lag instead).
	slots int
	// warm is how many requests set-up sends before timing starts.
	warm int
}

var (
	// serveHTTP runs at about a quarter of what two connections carry on a
	// 2-CPU host (~380 req/s). At 200 req/s the generator often waited for
	// a connection, and under host CPU steal the p50 spread across ten
	// seeded runs reached 0.38-0.44 of the median.
	serveHTTP = serveMode{http: true, rate: 100, slots: 2, warm: 100}
	// serveBatch runs at about a ninth of in-process capacity on a 2-CPU
	// host (~2,600 req/s). Micro-batches hold about 1.2 rows, since the
	// second replica takes most requests that arrive during the first
	// one's linger. Higher rates fill batches further, but queueing
	// amplifies host noise: at 1,500 req/s the p50 spread across ten
	// seeded runs reached 0.12-0.27 of the median, at 1,000 req/s 0.10-0.39
	// and at 500 req/s 0.32. With two busy loops contending for the two
	// CPUs, p50 rose 5% at 300 req/s and 37% at 500.
	serveBatch = serveMode{rate: 300, slots: 64, warm: 400}
)

const (
	// poolSize is how many distinct seeded inputs the requests cycle over.
	poolSize = 128
	// reqDeadline is each request's deadline after its due time; a miss
	// counts as a failed operation.
	reqDeadline = time.Second
	// reqHeader carries the request's trace id to the handler wrapper.
	reqHeader = "X-Perfbench-Req"
	modelName = "lenet"
)

// d500serve's defaults: batch 8, linger 2 ms, 2 replicas, sequential
// executor, respawn on, no access log.
func serverOptions(hook d500.Hook) []d500.ServerOption {
	return []d500.ServerOption{
		d500.WithMaxBatch(8),
		d500.WithMaxLinger(2 * time.Millisecond),
		d500.WithReplicas(2),
		d500.WithSession(d500.WithBackendName("sequential"), d500.WithHook(hook)),
		d500.WithRespawn(),
	}
}

type serveInst struct {
	mode    serveMode
	seed    uint64
	windows uint64
	output  string

	feeds  []map[string]*tensor.Tensor
	bodies [][]byte
	refs   [][]float32
	labels []int

	reg     *d500.Registry
	tap     *serveTap
	srv     *http.Server
	served  chan error
	client  *http.Client
	url     string
	lossSum float64
	lossN   int
}

func setupServe(ctx context.Context, e env, ph *phases, mode serveMode) (instance, error) {
	t := time.Now()
	sess, err := d500.New(d500.WithSeed(e.seed))
	if err != nil {
		return nil, err
	}
	// The served model is d500serve's zoo LeNet, initialised from its fixed
	// seed; the requests and their labels come from the workload seed.
	cfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 42}
	if err := sess.Open(models.LeNet(cfg)); err != nil {
		return nil, err
	}
	m := sess.Model()
	input := m.Inputs[0].Name
	s := &serveInst{mode: mode, seed: e.seed, output: m.Outputs[0]}
	// Reference outputs come from unbatched Session.Infer on the model as
	// built, before it goes through the file.
	rng := tensor.NewRNG(e.seed)
	for i := 0; i < poolSize; i++ {
		x := tensor.New(1, 1, 28, 28)
		for j := range x.Data() {
			x.Data()[j] = rng.Float32()
		}
		feeds := map[string]*tensor.Tensor{input: x}
		out, err := sess.Infer(ctx, feeds)
		if err != nil {
			return nil, err
		}
		s.feeds = append(s.feeds, feeds)
		s.refs = append(s.refs, append([]float32(nil), out[s.output].Data()...))
		s.labels = append(s.labels, rng.Intn(cfg.Classes))
		if mode.http {
			body, err := json.Marshal(serve.InferRequest{Feeds: map[string]serve.TensorJSON{
				input: {Shape: x.Shape(), Data: x.Data()}}})
			if err != nil {
				return nil, err
			}
			s.bodies = append(s.bodies, body)
		}
	}
	path := filepath.Join(e.dir, "lenet.d5nx")
	if err := sess.Save(path); err != nil {
		return nil, err
	}
	ph.model = time.Since(t)

	t = time.Now()
	loaded, err := d500.Load(path)
	if err != nil {
		return nil, err
	}
	metrics := d500.NewMetrics()
	s.tap = &serveTap{parent: "serve.infer"}
	if mode.http {
		s.tap.parent = "serve.handler"
	}
	if s.reg, err = d500.NewRegistry(); err != nil {
		return nil, err
	}
	spec := d500.ModelSpec{Version: path, Model: loaded, Options: serverOptions(d500.MultiHook(metrics.Hook(), s.tap.hook))}
	if err := s.reg.Load(modelName, spec); err != nil {
		s.close()
		return nil, err
	}
	metrics.ObserveRegistry(s.reg)
	ph.open = time.Since(t)

	if mode.http {
		t = time.Now()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		// The routes d500serve mounts, behind the benchmark's handler timer.
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		mux.Handle("/", metrics.Middleware(s.reg.Handler(nil), nil))
		s.srv = &http.Server{Handler: s.tap.wrap(mux)}
		s.served = make(chan error, 1)
		go func() { s.served <- s.srv.Serve(ln) }()
		s.client = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     mode.slots,
			MaxIdleConnsPerHost: mode.slots,
			DisableCompression:  true,
		}}
		s.url = "http://" + ln.Addr().String() + "/v1/models/" + modelName + "/infer"
		ph.net = time.Since(t)
	}

	// Warm-up: every request due at once, so the slots run back to back.
	t = time.Now()
	res := openLoop(ctx, make([]time.Duration, mode.warm), mode.slots, 10*reqDeadline, nil, s.sender(nil, nil))
	for _, err := range res.errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ph.warmup = time.Since(t)
	return s, nil
}

// wrongOutput marks a response that arrived but failed its check.
type wrongOutput struct{ error }

// sender returns the request function of one window. Each checked
// response's cross-entropy against its seeded label goes to losses[i].
func (s *serveInst) sender(rec *recorder, losses []float64) sendFunc {
	record := func(i int, logits []float32) {
		if losses != nil {
			losses[i] = crossEntropy(logits, s.labels[i%poolSize])
		}
	}
	if s.mode.http {
		return func(ctx context.Context, i int) error {
			k := i % poolSize
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(s.bodies[k]))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(reqHeader, strconv.Itoa(i))
			resp, err := s.client.Do(req)
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
			}
			logits, err := checkResponse(body, s.output, s.refs[k])
			if err != nil {
				return wrongOutput{fmt.Errorf("request %d: %w", i, err)}
			}
			record(i, logits)
			return nil
		}
	}
	return func(ctx context.Context, i int) error {
		k := i % poolSize
		start := time.Now()
		outs, err := s.reg.Infer(ctx, modelName, s.feeds[k])
		rec.add(int64(i), "serve.infer", "client", start, time.Now(), 0)
		if err != nil {
			return err
		}
		out, ok := outs[s.output]
		if !ok || out.Rank() != 2 || out.Dim(0) != 1 {
			return wrongOutput{fmt.Errorf("request %d: output %q missing or not one row", i, s.output)}
		}
		if err := checkLogits(out.Data(), s.refs[k]); err != nil {
			return wrongOutput{fmt.Errorf("request %d: %w", i, err)}
		}
		record(i, out.Data())
		return nil
	}
}

func (s *serveInst) measure(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	s.windows++
	sched, err := poissonSchedule(s.mode.rate, d, s.seed<<8+s.windows)
	if err != nil {
		return nil, err
	}
	losses := make([]float64, len(sched))
	before := s.reg.Stats().Aggregate
	s.tap.start(rec)
	res := openLoop(ctx, sched, s.mode.slots, reqDeadline, rec, s.sender(rec, losses))
	batches, execTotal := s.tap.stop()
	after := s.reg.Stats().Aggregate

	win := &window{attempted: len(sched), lat: res.lat, lag: res.lag, ends: res.done}
	logged := 0
	for i, err := range res.errs {
		var wrong wrongOutput
		switch {
		case err == nil:
			win.samples++
			s.lossSum += losses[i]
			s.lossN++
			continue
		case errors.As(err, &wrong):
			win.problems = append(win.problems, err.Error())
		case logged < 5:
			logged++
			fmt.Fprintf(os.Stderr, "perfbench: request %d failed: %v\n", i, err)
		}
		win.failed++
	}
	if rec != nil {
		rows := float64(after.Rows - before.Rows)
		win.counters = map[string]float64{
			"serve.batch_rows":      rows / math.Max(1, float64(after.Batches-before.Batches)),
			"serve.exec_ms_per_row": ms(execTotal) / math.Max(1, rows),
		}
		if batches == 0 {
			return nil, errors.New("traced window saw no ServeSample events")
		}
	}
	return win, nil
}

func (s *serveInst) finalLoss() (float64, error) {
	if s.lossN == 0 {
		return 0, errors.New("no request was served")
	}
	return s.lossSum / float64(s.lossN), nil
}

func (s *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if s.srv != nil {
		s.client.CloseIdleConnections()
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.reg != nil {
		errs = append(errs, s.reg.Close(ctx))
	}
	return errors.Join(errs...)
}

// serveTap turns the server's ServeSample events into batch spans and
// times the HTTP handler stack, while a traced window is running.
type serveTap struct {
	// parent is the span the batch spans nest under: the handler over
	// HTTP, the Registry.Infer call in process.
	parent string
	rec    atomic.Pointer[recorder]

	mu      sync.Mutex
	batches int
	exec    time.Duration
}

func (t *serveTap) start(rec *recorder) {
	t.mu.Lock()
	t.batches, t.exec = 0, 0
	t.mu.Unlock()
	t.rec.Store(rec)
}

func (t *serveTap) stop() (batches int, exec time.Duration) {
	t.rec.Store(nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.batches, t.exec
}

// hook receives the server's events. A batch serving several requests is
// recorded once, weighted by its request count, so the queue and exec
// times it adds up are per request: Σ QueueWait×Requests and
// Σ Exec×Requests.
func (t *serveTap) hook(ev d500.Event) {
	sm, ok := ev.(d500.ServeSample)
	if !ok {
		return
	}
	rec := t.rec.Load()
	if rec == nil {
		return
	}
	t.mu.Lock()
	t.batches++
	t.exec += sm.Exec
	id := -int64(t.batches)
	t.mu.Unlock()
	end := time.Now()
	rec.add(id, "serve.exec", t.parent, end.Add(-sm.Exec), end, sm.Requests)
	rec.add(id, "serve.queue", t.parent, end.Add(-sm.Exec-sm.QueueWait), end.Add(-sm.Exec), sm.Requests)
}

// wrap times the whole handler stack per request.
func (t *serveTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		if id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
			rec.add(id, "serve.handler", "client", start, time.Now(), 0)
		}
	})
}
