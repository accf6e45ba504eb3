package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"deep500/internal/serve"
)

func TestScheduleRepeatsForASeed(t *testing.T) {
	a, err := poissonSchedule(500, 2*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := poissonSchedule(500, 2*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave two different schedules (%d and %d arrivals)", len(a), len(b))
	}
	c, err := poissonSchedule(500, 2*time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

// A send that stalls holds the only slot, so the generator cannot send
// the requests due during the stall: they go out late, and their latency,
// counted from the due time, includes the stall.
func TestStalledSendRaisesLatencyAndLag(t *testing.T) {
	schedule := make([]time.Duration, 40)
	for i := range schedule {
		schedule[i] = time.Duration(i) * time.Millisecond
	}
	run := func(stall time.Duration) (lat, lag float64) {
		res := openLoop(context.Background(), schedule, 1, time.Second, nil, func(ctx context.Context, i int) error {
			if i == 5 {
				time.Sleep(stall)
			}
			return nil
		})
		for _, err := range res.errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return p99(res.lat), p99(res.lag)
	}
	lat0, lag0 := run(0)
	lat1, lag1 := run(50 * time.Millisecond)
	if lat1 < lat0+20 || lat1 < 20 {
		t.Errorf("latency p99 %.2f ms with a 50 ms stall, %.2f ms without; want the stall to show", lat1, lat0)
	}
	if lag1 < lag0+20 || lag1 < 20 {
		t.Errorf("lag p99 %.2f ms with a 50 ms stall, %.2f ms without; want the stall to show", lag1, lag0)
	}
}

func TestOpenLoopRecordsRequestSpans(t *testing.T) {
	rec := newRecorder()
	res := openLoop(context.Background(), make([]time.Duration, 3), 2, time.Second, rec, func(ctx context.Context, i int) error {
		if i == 1 {
			return errors.New("refused")
		}
		return nil
	})
	if res.errs[1] == nil || res.errs[0] != nil || res.errs[2] != nil {
		t.Fatalf("errors %v, want only request 1 to fail", res.errs)
	}
	total, _ := layerTimes(rec.snapshot())
	for _, name := range []string{rootSpan, "load.wait", "client"} {
		if _, ok := total[name]; !ok {
			t.Errorf("no %q span recorded", name)
		}
	}
}

func TestLayerTimesAndResidual(t *testing.T) {
	ns := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		// Operation 0: 10 ms, of which 1 ms is the generator's wait and
		// 8 ms the client call, whose handler took 6 ms.
		{Trace: 0, Name: rootSpan, Start: 0, End: ns(10)},
		{Trace: 0, Name: "load.wait", Parent: rootSpan, Start: 0, End: ns(1)},
		{Trace: 0, Name: "client", Parent: rootSpan, Start: ns(1), End: ns(9)},
		{Trace: 0, Name: "serve.handler", Parent: "client", Start: ns(2), End: ns(8)},
		// Operation 1: 10 ms, all of it in the client call.
		{Trace: 1, Name: rootSpan, Start: ns(20), End: ns(30)},
		{Trace: 1, Name: "client", Parent: rootSpan, Start: ns(20), End: ns(30)},
		{Trace: 1, Name: "serve.handler", Parent: "client", Start: ns(21), End: ns(29)},
		// One batch that served both requests: 2 ms exec, weighted by two.
		{Trace: -1, Name: "serve.exec", Parent: "serve.handler", Start: ns(5), End: ns(7), Weight: 2},
	}
	total, self := layerTimes(spans)
	want := map[string]time.Duration{
		rootSpan:        1 * time.Millisecond, // 20 − (1 + 8 + 10)
		"load.wait":     1 * time.Millisecond,
		"client":        4 * time.Millisecond,  // 18 − (6 + 8)
		"serve.handler": 10 * time.Millisecond, // 14 − 4
		"serve.exec":    4 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if total[rootSpan] != 20*time.Millisecond || total["serve.exec"] != 4*time.Millisecond {
		t.Fatalf("totals %v", total)
	}
	if got := residual(total, self); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("residual %v, want 0.05 (1 ms of 20 ms unattributed)", got)
	}
	// Children that add up to more than their parent: the handler's self
	// time goes negative, and the residual shows the 7 ms counted twice.
	spans = append(spans, span{Trace: -2, Name: "serve.queue", Parent: "serve.handler", Start: 0, End: ns(17)})
	total, self = layerTimes(spans)
	if self["serve.handler"] != -7*time.Millisecond {
		t.Fatalf("handler self time %v, want -7ms", self["serve.handler"])
	}
	if got := residual(total, self); math.Abs(got-(-0.3)) > 1e-12 {
		t.Fatalf("residual %v with 7 ms counted twice, want -0.3", got)
	}
}

func TestCheckRejectsPerturbedResponse(t *testing.T) {
	want := []float32{0.5, -1.25, 3, 0, 1e-3}
	encode := func(data []float32, shape []int) []byte {
		b, err := json.Marshal(serve.InferResponse{Outputs: map[string]serve.TensorJSON{
			"y": {Shape: shape, Data: data}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := checkResponse(encode(want, []int{1, 5}), "y", want); err != nil {
		t.Fatalf("exact response rejected: %v", err)
	}
	near := append([]float32(nil), want...)
	near[2] += 3 * 1e-5
	if _, err := checkResponse(encode(near, []int{1, 5}), "y", want); err != nil {
		t.Fatalf("response within tolerance rejected: %v", err)
	}
	perturbed := append([]float32(nil), want...)
	perturbed[1] += 0.01
	if _, err := checkResponse(encode(perturbed, []int{1, 5}), "y", want); err == nil {
		t.Fatal("perturbed response accepted")
	}
	if _, err := checkResponse(encode(want, []int{5, 1}), "y", want); err == nil {
		t.Fatal("response of the wrong shape accepted")
	}
	if _, err := checkResponse(encode(want, []int{1, 5}), "z", want); err == nil {
		t.Fatal("response without the output accepted")
	}
	nan := append([]float32(nil), want...)
	nan[0] = float32(math.NaN())
	if err := checkLogits(nan, want); err == nil {
		t.Fatal("NaN output accepted")
	}
}

func TestCrossEntropy(t *testing.T) {
	if got := crossEntropy([]float32{0, 0, 0, 0}, 2); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform logits: %v, want log 4", got)
	}
}
