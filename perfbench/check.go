package main

import (
	"encoding/json"
	"fmt"
	"math"

	"deep500/internal/serve"
)

// outTol bounds the difference between a served output and the
// unbatched reference. Batched GEMMs sum in another order than a batch of
// one, so outputs agree to rounding, not bit for bit.
const outTol = 1e-4

// checkLogits compares a served output row with its reference: same
// length, every value within outTol absolutely or relatively.
func checkLogits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d values, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		if diff := math.Abs(g - w); !(diff <= outTol || diff <= outTol*math.Abs(w)) {
			return fmt.Errorf("output[%d] = %g, want %g", i, g, w)
		}
	}
	return nil
}

// checkResponse decodes an HTTP inference response body and checks the
// named output against its reference.
func checkResponse(body []byte, output string, want []float32) ([]float32, error) {
	var resp serve.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	out, ok := resp.Outputs[output]
	if !ok {
		return nil, fmt.Errorf("response has no output %q", output)
	}
	if len(out.Shape) != 2 || out.Shape[0] != 1 || out.Shape[1] != len(want) {
		return nil, fmt.Errorf("output shape %v, want [1 %d]", out.Shape, len(want))
	}
	return out.Data, checkLogits(out.Data, want)
}

// crossEntropy is −log softmax(logits)[label].
func crossEntropy(logits []float32, label int) float64 {
	maxv := math.Inf(-1)
	for _, v := range logits {
		maxv = math.Max(maxv, float64(v))
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v) - maxv)
	}
	return math.Log(sum) - (float64(logits[label]) - maxv)
}
