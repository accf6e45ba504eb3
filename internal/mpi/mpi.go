// Package mpi is the message-passing substrate of Deep500-Go's Level 3.
// It stands in for MPI-on-Aries in the paper's evaluation:
// ranks are goroutines that exchange *real data* through in-memory
// mailboxes — so distributed algorithms are executed for real and can be
// validated bit-for-bit against serial execution — while every operation
// also advances a per-rank *virtual clock* under an α–β (latency-bandwidth)
// network cost model. Virtual time yields scaling curves for node counts
// far beyond the host machine (the paper runs up to 256 nodes), with
// contention effects such as parameter-server queueing emerging naturally
// from message timestamps.
package mpi

import (
	"context"
	"fmt"
	"sync"
	"time"

	"deep500/internal/metrics"
)

// CostModel parameterizes the simulated network and node.
type CostModel struct {
	// Latency is α: per-message startup cost.
	Latency time.Duration
	// Bandwidth is the per-link bandwidth in bytes/second (1/β).
	Bandwidth float64
	// SendOverhead is the CPU time a sender is busy per message (LogP "o").
	SendOverhead time.Duration
	// HostDeviceBytesPerSecond models the synchronous GPU↔host copy the
	// paper notes reference implementations pay before communicating
	// (§IV-F); 0 disables the charge.
	HostDeviceBandwidth float64
	// PerMessageCPU is extra per-message processing (serialization,
	// Python/NumPy conversion in the paper's reference optimizers). This is
	// the knob that separates "Python profile" from "C++ profile" codes.
	PerMessageCPU time.Duration
}

// Aries returns a cost model loosely calibrated to the Cray Aries
// interconnect of Piz Daint (the paper's testbed): ~1.5 µs latency,
// ~10 GB/s per-link bandwidth.
func Aries() CostModel {
	return CostModel{
		Latency:      1500 * time.Nanosecond,
		Bandwidth:    10e9,
		SendOverhead: 500 * time.Nanosecond,
	}
}

// transferSeconds is the α+βn wire time for n bytes.
func (c CostModel) transferSeconds(bytes int64) float64 {
	s := c.Latency.Seconds()
	if c.Bandwidth > 0 {
		s += float64(bytes) / c.Bandwidth
	}
	return s
}

type message struct {
	data    []float32
	tag     int
	arrival float64 // virtual arrival time at the receiver (seconds)
}

// mailbox is an unbounded FIFO queue with blocking pop.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) push(msg message) {
	m.mu.Lock()
	m.q = append(m.q, msg)
	m.cond.Signal()
	m.mu.Unlock()
}

func (m *mailbox) pop() message {
	m.mu.Lock()
	for len(m.q) == 0 {
		m.cond.Wait()
	}
	msg := m.q[0]
	m.q = m.q[1:]
	m.mu.Unlock()
	return msg
}

func (m *mailbox) tryPop() (message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) == 0 {
		return message{}, false
	}
	msg := m.q[0]
	m.q = m.q[1:]
	return msg, true
}

// World is a communicator: size ranks and their pairwise mailboxes.
type World struct {
	size  int
	cost  CostModel
	boxes [][]*mailbox // boxes[dst][src]
	// Volume aggregates traffic over all ranks.
	Volume *metrics.CommunicationVolume
}

// NewWorld creates a communicator of the given size.
func NewWorld(size int, cost CostModel) *World {
	if size < 1 {
		panic("mpi: world size must be ≥ 1")
	}
	w := &World{size: size, cost: cost, Volume: metrics.NewCommunicationVolume()}
	w.boxes = make([][]*mailbox, size)
	for dst := range w.boxes {
		w.boxes[dst] = make([]*mailbox, size)
		for src := range w.boxes[dst] {
			w.boxes[dst][src] = newMailbox()
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Rank is one process of the world. All methods must be called only from
// the goroutine that owns the rank.
type Rank struct {
	world *World
	id    int
	clock float64 // virtual seconds
	// SentBytes counts bytes this rank charged to the network.
	SentBytes int64
}

// ID returns the rank index; Size the world size.
func (r *Rank) ID() int   { return r.id }
func (r *Rank) Size() int { return r.world.size }

// Time returns the rank's current virtual time.
func (r *Rank) Time() time.Duration { return time.Duration(r.clock * float64(time.Second)) }

// Compute advances the virtual clock by a simulated computation of duration
// d (e.g. a forward+backward pass measured or modeled elsewhere).
func (r *Rank) Compute(d time.Duration) { r.clock += d.Seconds() }

// chargeHostCopy adds the GPU↔host staging cost for n bytes, if modeled.
func (r *Rank) chargeHostCopy(bytes int64) {
	if r.world.cost.HostDeviceBandwidth > 0 {
		r.clock += float64(bytes) / r.world.cost.HostDeviceBandwidth
	}
}

// Send transmits data to dst. simBytes is the *charged* wire size; pass
// SimActual to charge the real buffer size. The data slice is copied.
func (r *Rank) Send(dst int, data []float32, simBytes int64) {
	r.SendTagged(dst, data, 0, simBytes)
}

// SimActual charges the actual buffer size on the wire.
const SimActual int64 = -1

// SendTagged is Send with a message tag.
func (r *Rank) SendTagged(dst int, data []float32, tag int, simBytes int64) {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if simBytes == SimActual {
		simBytes = int64(len(data)) * 4
	}
	cost := r.world.cost
	r.clock += cost.SendOverhead.Seconds() + cost.PerMessageCPU.Seconds()
	r.chargeHostCopy(simBytes)
	arrival := r.clock + cost.transferSeconds(simBytes)
	cp := make([]float32, len(data))
	copy(cp, data)
	r.world.boxes[dst][r.id].push(message{data: cp, tag: tag, arrival: arrival})
	r.world.Volume.AddSent(simBytes)
	r.SentBytes += simBytes
}

// Recv blocks for a message from src and returns its payload; the virtual
// clock advances to at least the message's arrival time.
func (r *Rank) Recv(src int) []float32 {
	data, _ := r.RecvTagged(src)
	return data
}

// RecvTagged returns the payload and tag of the next message from src.
func (r *Rank) RecvTagged(src int) ([]float32, int) {
	msg := r.world.boxes[r.id][src].pop()
	if msg.arrival > r.clock {
		r.clock = msg.arrival
	}
	r.clock += r.world.cost.PerMessageCPU.Seconds()
	r.chargeHostCopy(int64(len(msg.data)) * 4)
	r.world.Volume.AddReceived(int64(len(msg.data)) * 4)
	return msg.data, msg.tag
}

// RecvAny polls all sources round-robin (deterministic order) and returns
// the first available message with its source. It busy-waits with a
// scheduler yield; use for server loops that consume from all workers.
func (r *Rank) RecvAny() ([]float32, int) {
	data, src, _ := r.RecvAnyTagged()
	return data, src
}

// RecvAnyTagged is RecvAny returning the message tag as well.
func (r *Rank) RecvAnyTagged() ([]float32, int, int) {
	data, src, tag, _ := r.recvAny(nil)
	return data, src, tag
}

// RecvAnyCtx is RecvAnyTagged that returns ctx.Err() if the context ends
// before a message arrives — the cancellation-aware receive the parameter
// server uses so a cancel unblocks it promptly instead of at the next
// message.
func (r *Rank) RecvAnyCtx(ctx context.Context) ([]float32, int, int, error) {
	return r.recvAny(ctx)
}

// recvAny scans all sources until a message is available; a non-nil ctx is
// checked every sweep.
func (r *Rank) recvAny(ctx context.Context) ([]float32, int, int, error) {
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, 0, 0, err
			}
		}
		for src := 0; src < r.world.size; src++ {
			if src == r.id {
				continue
			}
			if msg, ok := r.world.boxes[r.id][src].tryPop(); ok {
				if msg.arrival > r.clock {
					r.clock = msg.arrival
				}
				r.clock += r.world.cost.PerMessageCPU.Seconds()
				r.world.Volume.AddReceived(int64(len(msg.data)) * 4)
				return msg.data, src, msg.tag, nil
			}
		}
		// Nothing ready: block on a round-robin scan with short sleeps to
		// avoid burning CPU; determinism of *virtual* time is preserved
		// because arrival stamps, not wall time, order the simulation.
		time.Sleep(time.Microsecond)
	}
}

// RecvCtx is Recv(src) that returns ctx.Err() if the context ends before a
// message from src arrives.
func (r *Rank) RecvCtx(ctx context.Context, src int) ([]float32, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if msg, ok := r.world.boxes[r.id][src].tryPop(); ok {
			if msg.arrival > r.clock {
				r.clock = msg.arrival
			}
			r.clock += r.world.cost.PerMessageCPU.Seconds()
			r.chargeHostCopy(int64(len(msg.data)) * 4)
			r.world.Volume.AddReceived(int64(len(msg.data)) * 4)
			return msg.data, nil
		}
		time.Sleep(time.Microsecond)
	}
}

// Run spawns size rank goroutines executing fn and waits for completion.
// It returns the maximum virtual time across ranks (the simulated makespan).
func Run(size int, cost CostModel, fn func(r *Rank) error) (time.Duration, *World, error) {
	w := NewWorld(size, cost)
	ranks := make([]*Rank, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		ranks[i] = &Rank{world: w, id: i}
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r.id] = fmt.Errorf("mpi: rank %d panicked: %v", r.id, p)
				}
			}()
			errs[r.id] = fn(r)
		}(ranks[i])
	}
	wg.Wait()
	var makespan time.Duration
	for _, r := range ranks {
		if t := r.Time(); t > makespan {
			makespan = t
		}
	}
	for _, err := range errs {
		if err != nil {
			return makespan, w, err
		}
	}
	return makespan, w, nil
}
