package dist

import (
	"context"

	"deep500/internal/mpi"
)

// Rank is the communication fabric one distributed process (or simulated
// rank) speaks: point-to-point sends and receives plus the allreduce
// collective. Two implementations exist — the in-process *mpi.Rank
// simulator (goroutine mailboxes under an α–β virtual clock) and the
// networked internal/transport TCP rank (real sockets, length-prefixed
// frames) — and every optimizer in this package runs unchanged over
// either, which is how the networked stack is validated tolerance-equal
// against the simulator.
//
// simBytes arguments charge a scaled wire size on the simulated fabric
// (pass mpi.SimActual for the real buffer size); the TCP fabric ignores
// them — its bytes are real.
type Rank interface {
	// ID returns this rank's index in [0, Size).
	ID() int
	// Size returns the world size.
	Size() int
	// Send transmits data to dst (tag 0).
	Send(dst int, data []float32, simBytes int64)
	// SendTagged transmits data to dst with a message tag.
	SendTagged(dst int, data []float32, tag int, simBytes int64)
	// Recv blocks for the next message from src and returns its payload.
	Recv(src int) []float32
	// RecvTagged blocks for the next message from src, returning payload
	// and tag.
	RecvTagged(src int) ([]float32, int)
	// RecvAny blocks for the next message from any rank, returning payload
	// and source.
	RecvAny() ([]float32, int)
	// RecvAnyTagged blocks for the next message from any rank, returning
	// payload, source and tag.
	RecvAnyTagged() ([]float32, int, int)
	// RecvCtx is Recv(src) that returns ctx.Err() if the context ends
	// before a message arrives, so a blocked RunPSServer unblocks promptly
	// on cancellation instead of waiting for the next message.
	RecvCtx(ctx context.Context, src int) ([]float32, error)
	// RecvAnyCtx is RecvAnyTagged that returns ctx.Err() if the context
	// ends before a message arrives.
	RecvAnyCtx(ctx context.Context) (data []float32, src, tag int, err error)
	// AllreduceSum sums data elementwise across all ranks, in place.
	AllreduceSum(algo mpi.AllreduceAlgo, data []float32, simBytes int64)
}

// Message tags of the parameter-server wire protocol (frames between a
// CentralizedWorker and RunPSServer).
const (
	// TagGrad marks a gradient push; the server replies with parameters.
	TagGrad = 0
	// TagDone marks a worker's final message in done-counting mode
	// (ServerConfig.UntilDone): no gradient, no reply expected.
	TagDone = 1
)

// RingAllreduce sums data elementwise across all ranks in place using the
// bandwidth-optimal ring algorithm (reduce-scatter then allgather on n/p
// chunks) over the fabric's point-to-point sends. The chunking and
// reduction order match the simulator's built-in ring, so results agree
// with mpi.Rank.AllreduceSum(mpi.AllreduceRing, ...) operation for
// operation. The TCP fabric routes its AllreduceSum here.
func RingAllreduce(r Rank, data []float32) {
	p := r.Size()
	if p == 1 {
		return
	}
	n := len(data)
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	next := (r.ID() + 1) % p
	prev := (r.ID() - 1 + p) % p

	// Reduce-scatter: after p-1 steps, rank i holds the full sum of chunk
	// (i+1) mod p.
	for step := 0; step < p-1; step++ {
		sendChunk := (r.ID() - step + p) % p
		recvChunk := (r.ID() - step - 1 + p) % p
		r.Send(next, data[bounds[sendChunk]:bounds[sendChunk+1]], mpi.SimActual)
		in := r.Recv(prev)
		dst := data[bounds[recvChunk]:bounds[recvChunk+1]]
		for i := range dst {
			dst[i] += in[i]
		}
	}
	// Allgather: circulate the reduced chunks.
	for step := 0; step < p-1; step++ {
		sendChunk := (r.ID() - step + 1 + p) % p
		recvChunk := (r.ID() - step + p) % p
		r.Send(next, data[bounds[sendChunk]:bounds[sendChunk+1]], mpi.SimActual)
		in := r.Recv(prev)
		copy(data[bounds[recvChunk]:bounds[recvChunk+1]], in)
	}
}
