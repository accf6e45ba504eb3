package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

// d5nx assembles a raw D5NX stream from uvarint fields, so a test can
// declare counts the encoder would never write.
type d5nx []byte

func (b d5nx) u(vs ...uint64) d5nx {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// header starts a stream: magic, version, empty model name and docstring.
func header(version uint64) d5nx { return d5nx(d5nxMagic).u(version, 0, 0) }

// TestDecodeRejectsMalformedCounts feeds the decoder one stream per place
// it reads a count or size off the wire. Each must fail with ErrMalformed
// without sizing an allocation from the count: a huge count in a short
// stream once killed the process with an unrecoverable out-of-memory.
func TestDecodeRejectsMalformedCounts(t *testing.T) {
	const huge = 1 << 36
	// noIO ends the model prologue: no inputs, outputs or initializers.
	noIO := func(version uint64) d5nx { return header(version).u(0, 0, 0) }
	// node starts one node with an empty name and op type.
	node := func() d5nx { return noIO(d5nxVersion).u(1, 0, 0) }
	// tensorAt starts one initializer with an empty name.
	tensorAt := func() d5nx { return header(d5nxVersion).u(0, 0, 1, 0) }
	cases := []struct {
		name   string
		stream d5nx
		ckpt   bool
	}{
		{"input rank", header(d5nxVersion).u(1, 0, huge), false},
		{"node inputs", node().u(huge), false},
		{"node outputs", node().u(0, huge), false},
		{"node attributes", node().u(0, 0, huge), false},
		{"attribute ints", node().u(0, 0, 1, 0, uint64(AttrInts), huge), false},
		{"attribute floats", node().u(0, 0, 1, 0, uint64(AttrFloats), huge), false},
		{"tensor rank", tensorAt().u(huge), false},
		// The wrapped product is 0, so without the overflow check this
		// stream, completed by a zero node count, would decode.
		{"tensor element overflow", tensorAt().u(2, 1<<40, 1<<40, 0), false},
		{"tensor byte overflow", tensorAt().u(1, math.MaxInt/4+1), false},
		{"tensor data truncated", tensorAt().u(1, 1<<30), false},
		{"sampler order", noIO(d5nxVersionCkpt).u(0, 0, 0, 0, 0, 0, 0, huge), true},
	}
	if got := len(cases[0].stream); got != 15 {
		t.Fatalf("input-rank stream is %d bytes, want the 15-byte reproducer", got)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if c.ckpt {
				_, err = DecodeCheckpoint(bytes.NewReader(c.stream))
			} else {
				_, err = Decode(bytes.NewReader(c.stream))
			}
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Fatalf("decoding a %d-byte stream allocated %d bytes", len(c.stream), n)
			}
		})
	}
}

// TestDecodeRejectsEveryTruncation cuts a valid encoding at every byte
// past the magic: each prefix must fail with ErrMalformed.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(smallMLP(), &buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := len(d5nxMagic); n < len(full); n++ {
		if _, err := Decode(bytes.NewReader(full[:n])); !errors.Is(err, ErrMalformed) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrMalformed", n, len(full), err)
		}
	}
}
