package mpi

// Collective operations. Two allreduce algorithms are provided — ring
// (bandwidth-optimal, 2(p-1) steps on n/p chunks) and recursive doubling
// (latency-optimal, log p steps on full n) — so their tradeoff can be
// benchmarked (BenchmarkAblationAllreduce). All collectives move real
// data and charge virtual time through the underlying Send/Recv.

// AllreduceAlgo selects the allreduce implementation.
type AllreduceAlgo int

const (
	// AllreduceRing is the bandwidth-optimal ring algorithm.
	AllreduceRing AllreduceAlgo = iota
	// AllreduceDoubling is recursive doubling (power-of-two ranks only;
	// falls back to ring otherwise).
	AllreduceDoubling
)

// AllreduceSum sums data elementwise across all ranks, in place, using the
// selected algorithm. simBytes charges a scaled wire size for the *whole
// vector* (chunk costs are derived proportionally); pass SimActual to
// charge real sizes.
func (r *Rank) AllreduceSum(algo AllreduceAlgo, data []float32, simBytes int64) {
	p := r.world.size
	if p == 1 {
		return
	}
	if simBytes == SimActual {
		simBytes = int64(len(data)) * 4
	}
	if algo == AllreduceDoubling && p&(p-1) == 0 {
		r.allreduceDoubling(data, simBytes)
		return
	}
	r.allreduceRing(data, simBytes)
}

// allreduceRing: reduce-scatter then allgather over a logical ring.
func (r *Rank) allreduceRing(data []float32, simBytes int64) {
	p := r.world.size
	n := len(data)
	// chunk boundaries
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	chunkBytes := func(c int) int64 {
		if n == 0 {
			return simBytes / int64(p)
		}
		return simBytes * int64(bounds[c+1]-bounds[c]) / int64(n)
	}
	next := (r.id + 1) % p
	prev := (r.id - 1 + p) % p

	// Reduce-scatter: after p-1 steps, rank i holds the full sum of chunk
	// (i+1) mod p.
	for step := 0; step < p-1; step++ {
		sendChunk := (r.id - step + p) % p
		recvChunk := (r.id - step - 1 + p) % p
		r.Send(next, data[bounds[sendChunk]:bounds[sendChunk+1]], chunkBytes(sendChunk))
		in := r.Recv(prev)
		dst := data[bounds[recvChunk]:bounds[recvChunk+1]]
		for i := range dst {
			dst[i] += in[i]
		}
	}
	// Allgather: circulate the reduced chunks.
	for step := 0; step < p-1; step++ {
		sendChunk := (r.id - step + 1 + p) % p
		recvChunk := (r.id - step + p) % p
		r.Send(next, data[bounds[sendChunk]:bounds[sendChunk+1]], chunkBytes(sendChunk))
		in := r.Recv(prev)
		copy(data[bounds[recvChunk]:bounds[recvChunk+1]], in)
	}
}

// allreduceDoubling: log2(p) exchange-and-add steps on the full vector.
func (r *Rank) allreduceDoubling(data []float32, simBytes int64) {
	p := r.world.size
	for mask := 1; mask < p; mask <<= 1 {
		partner := r.id ^ mask
		r.Send(partner, data, simBytes)
		in := r.Recv(partner)
		for i := range data {
			data[i] += in[i]
		}
	}
}

// Broadcast sends root's data to all ranks (binomial tree), in place.
func (r *Rank) Broadcast(root int, data []float32, simBytes int64) {
	p := r.world.size
	if p == 1 {
		return
	}
	if simBytes == SimActual {
		simBytes = int64(len(data)) * 4
	}
	// canonical binomial tree (as in MPICH): receive from the parent at the
	// lowest set bit of the relative rank, then fan out to children.
	rel := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := r.id - mask
			if src < 0 {
				src += p
			}
			in := r.Recv(src)
			copy(data, in)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := r.id + mask
			if dst >= p {
				dst -= p
			}
			r.Send(dst, data, simBytes)
		}
		mask >>= 1
	}
}

// Gather collects each rank's data at root; root returns all payloads in
// rank order (including its own), others return nil.
func (r *Rank) Gather(root int, data []float32, simBytes int64) [][]float32 {
	p := r.world.size
	if r.id != root {
		r.Send(root, data, simBytes)
		return nil
	}
	out := make([][]float32, p)
	for src := 0; src < p; src++ {
		if src == root {
			cp := make([]float32, len(data))
			copy(cp, data)
			out[src] = cp
			continue
		}
		out[src] = r.Recv(src)
	}
	return out
}

// Barrier synchronizes all ranks (allreduce of one element).
func (r *Rank) Barrier() {
	one := []float32{1}
	r.AllreduceSum(AllreduceDoubling, one, 4)
}
