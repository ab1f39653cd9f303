// Package mpi is a message-passing runtime for simulated clusters.
//
// It implements the MPI subset the NAS benchmark skeletons need —
// point-to-point send/receive with eager and rendezvous protocols, and
// the collectives Barrier, Bcast, Reduce, Allreduce and Alltoall built
// from point-to-point the way MPICH builds them (dissemination barrier,
// binomial trees, pairwise exchange). Ranks are kernel tasks placed on
// cluster nodes, so every MPI operation pays CPU cost on its node and is
// frozen whenever that node is in System Management Mode: exactly the
// coupling through which per-node SMI noise is amplified by
// synchronization, the paper's central MPI finding.
package mpi

import (
	"errors"
	"fmt"

	"smistudy/internal/cluster"
	"smistudy/internal/cpu"
	"smistudy/internal/kernel"
	"smistudy/internal/obs"
	"smistudy/internal/sim"
)

// AnySource matches a receive against any sender.
const AnySource = -1

const envelopeBytes = 64 // control-message wire size (RTS/CTS/barrier)

// Params is the runtime cost/protocol model.
type Params struct {
	// EagerLimit is the largest message sent eagerly (buffered at the
	// receiver); larger messages use a rendezvous handshake.
	EagerLimit int
	// SendOps/RecvOps are the CPU costs of posting a send/receive.
	SendOps float64
	RecvOps float64
	// PackOpsPerByte is the per-byte CPU cost of packing/unpacking.
	PackOpsPerByte float64
	// WaitOps is the CPU cost of completing a request in Wait.
	WaitOps float64
	// ReduceOpsPerByte is the arithmetic cost of combining reduction
	// operands.
	ReduceOpsPerByte float64

	// RTO enables the reliable transport: every transfer is acknowledged
	// and retransmitted on timeout, with RTO as the minimum timeout (the
	// effective per-transfer timeout also scales with message flight
	// time). Zero disables reliability — transfers are fire-and-forget,
	// appropriate for a perfect fabric and free of any timing overhead.
	RTO sim.Time
	// RTOBackoff multiplies the timeout after each retransmission
	// (default 2).
	RTOBackoff float64
	// MaxRetries bounds retransmissions per transfer; exceeding it fails
	// the transfer with ErrPeerUnreachable (default DefaultMaxRetries).
	MaxRetries int

	// Watchdog is the progress watchdog's observation interval: zero
	// selects DefaultWatchdogInterval, negative disables the watchdog.
	Watchdog sim.Time
}

// DefaultParams resembles an MPICH-over-TCP stack of the period.
func DefaultParams() Params {
	return Params{
		EagerLimit:       64 << 10,
		SendOps:          4000,
		RecvOps:          4000,
		PackOpsPerByte:   0.25,
		WaitOps:          800,
		ReduceOpsPerByte: 1.0,
	}
}

// ReliableParams is DefaultParams with the retransmission protocol
// enabled — the configuration for runs over a faulty fabric.
func ReliableParams() Params {
	p := DefaultParams()
	p.RTO = 2 * sim.Millisecond
	p.RTOBackoff = 2
	p.MaxRetries = DefaultMaxRetries
	return p
}

// Request is a pending point-to-point operation.
type Request struct {
	done   bool
	err    error
	bytes  int
	src    int
	waiter *Rank // the rank parked in Wait on this request, if any

	// Operation identity, kept as plain ints so blocked-state reports
	// can be rendered lazily ('s' = send, 'r' = recv). A posted receive
	// matches arriving envelopes on (peer, tag).
	kind      byte
	peer, tag int
}

func (q *Request) complete(src, bytes int) {
	if q.done {
		return
	}
	q.done = true
	q.src = src
	q.bytes = bytes
	if q.waiter != nil {
		q.waiter.wake()
	}
}

// fail completes the request with an error, waking any waiter so it
// can observe it.
func (q *Request) fail(err error) {
	if q.done {
		return
	}
	q.done = true
	q.err = err
	if q.waiter != nil {
		q.waiter.wake()
	}
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.done }

// Err reports the failure of a completed request, if any.
func (q *Request) Err() error { return q.err }

// Source reports the matched sender of a completed receive.
func (q *Request) Source() int { return q.src }

// Bytes reports the transferred size of a completed request.
func (q *Request) Bytes() int { return q.bytes }

// message is an envelope from sender to target: an eager payload, or a
// rendezvous RTS whose CTS and data transfers follow once it is matched.
// Messages are pooled per World, and each builds its fabric callbacks
// once, when it is first made.
type message struct {
	w               *World
	src, tag, bytes int
	rendezvous      bool
	sender, target  *Rank
	sendReq         *Request // rendezvous: completed when the data lands
	recvReq         *Request // rendezvous: the matched receive

	deliverFn  func()      // the envelope reaches target
	ctsFn      func()      // the CTS reaches sender, which sends the data
	dataFn     func()      // the rendezvous data reaches target
	failRTSFn  func(error) // the RTS is lost for good
	failBothFn func(error) // the CTS or the data is lost for good
}

// World is one MPI job: a set of ranks placed over a cluster.
type World struct {
	cl    *cluster.Cluster
	par   Params
	ranks []*Rank

	remaining int
	endTime   sim.Time

	net      TransportStats
	obs      FaultObserver
	progress uint64 // bumped on every delivery/completion; watched by the watchdog
	errs     []error
	wderr    *NoProgressError
	wdEvent  *sim.Event

	tr obs.Tracer // nil unless the run is traced

	// Free lists of requests and messages the runtime has finished with.
	freeReqs []*Request
	freeMsgs []*message
}

// SetTracer attaches an observability tracer for MPI traffic events
// (send/recv per rank, collective phases, retransmissions). Usually the
// same tracer the cluster carries.
func (w *World) SetTracer(tr obs.Tracer) { w.tr = tr }

// bump records forward progress for the watchdog.
func (w *World) bump() { w.progress++ }

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int
	node *cluster.Node
	task *kernel.Task

	mailbox []*message
	posted  []*Request // receives not yet matched
	reqs    []*Request // Alltoall's and Alltoallv's posted requests
	collSeq int

	done    bool
	err     error     // asynchronous transport failure, observed at Wait
	parked  *sim.Proc // set while parked in Wait and not yet woken
	waiting *Request  // the request being waited on, for the watchdog
}

// rankAbort is the panic sentinel that unwinds a rank out of the MPI
// stack when an operation fails; RunE's spawn wrapper recovers it.
type rankAbort struct {
	rank int
	err  error
}

// abort unwinds the rank with the given error.
func (r *Rank) abort(err error) {
	panic(rankAbort{rank: r.id, err: err})
}

// fatal poisons the rank with an asynchronous transport error; the
// rank aborts at its current or next blocking operation.
func (r *Rank) fatal(err error) {
	if r.done {
		return
	}
	if r.err == nil {
		r.err = err
	}
	r.wake()
}

// wake resumes the rank parked in Wait. A completing request and a
// transport failure can both try to wake one park; only the first does.
func (r *Rank) wake() {
	if p := r.parked; p != nil {
		r.parked = nil
		p.Resumer()()
	}
}

// NewWorld creates size = nodes × ranksPerNode ranks with block placement
// (ranks 0..r-1 on node 0, and so on), matching how mpirun lays out ranks
// with a per-node slot count.
func NewWorld(cl *cluster.Cluster, ranksPerNode int, par Params) (*World, error) {
	if ranksPerNode <= 0 {
		return nil, fmt.Errorf("mpi: ranksPerNode = %d", ranksPerNode)
	}
	w := &World{cl: cl, par: par}
	size := len(cl.Nodes) * ranksPerNode
	for i := 0; i < size; i++ {
		w.ranks = append(w.ranks, &Rank{
			w:    w,
			id:   i,
			node: cl.Nodes[i/ranksPerNode],
		})
	}
	return w, nil
}

// MustNewWorld is NewWorld but panics on error.
func MustNewWorld(cl *cluster.Cluster, ranksPerNode int, par Params) *World {
	w, err := NewWorld(cl, ranksPerNode, par)
	if err != nil {
		panic(err)
	}
	return w
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank id (for post-run inspection).
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// Run spawns every rank as a kernel task running main with the given
// workload profile, drives the simulation until all ranks return, and
// reports the completion time. The engine is stopped at completion; SMI
// drivers must be armed by the caller beforehand if desired. Run panics
// on any failure; RunE is the error-returning form.
func (w *World) Run(prof cpu.Profile, main func(r *Rank, t *kernel.Task)) sim.Time {
	end, err := w.RunE(prof, main)
	if err != nil {
		panic(fmt.Sprintf("mpi: run failed: %v", err))
	}
	return end
}

// RunE is Run with failure reporting: rank aborts (ErrPeerUnreachable
// from the reliable transport, or any error raised through Request
// failure) and watchdog no-progress reports come back as an error
// instead of a hang or panic, with the engine shut down so the run ends
// at a bounded simulated time.
func (w *World) RunE(prof cpu.Profile, main func(r *Rank, t *kernel.Task)) (sim.Time, error) {
	w.remaining = len(w.ranks)
	for _, r := range w.ranks {
		r := r
		r.task = r.node.Kernel.Spawn(fmt.Sprintf("rank%d", r.id), prof, func(t *kernel.Task) {
			w.runRank(r, t, main)
			r.done = true
			w.bump()
			w.remaining--
			if w.remaining == 0 {
				w.endTime = w.cl.Eng.Now()
				w.cl.Eng.Stop()
			}
		})
	}
	w.armWatchdog()
	w.cl.Eng.Run()
	if w.wdEvent != nil {
		w.cl.Eng.Cancel(w.wdEvent)
		w.wdEvent = nil
	}
	if w.remaining != 0 && w.wderr == nil && len(w.errs) == 0 {
		// The event queue drained with ranks outstanding: a deadlock in
		// the communication pattern itself (nothing in flight, no timer
		// armed). Report it like a watchdog trip with interval zero.
		w.wderr = w.noProgress(0)
	}
	if w.remaining != 0 {
		// Reap parked rank processes so the engine is reusable.
		w.cl.Eng.Shutdown()
	}
	if len(w.errs) > 0 || w.wderr != nil {
		errs := w.errs
		if w.wderr != nil {
			errs = append(errs[:len(errs):len(errs)], error(w.wderr))
		}
		return w.cl.Eng.Now(), errors.Join(errs...)
	}
	return w.endTime, nil
}

// runRank runs one rank's main, converting a rankAbort unwind into a
// recorded error. Anything else — including the engine's kill sentinel
// during Shutdown — propagates.
func (w *World) runRank(r *Rank, t *kernel.Task, main func(r *Rank, t *kernel.Task)) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		ab, ok := v.(rankAbort)
		if !ok {
			panic(v)
		}
		w.errs = append(w.errs, fmt.Errorf("rank %d: %w", ab.rank, ab.err))
	}()
	main(r, t)
}

// emitMPI reports one MPI event on the rank's timeline (no-op when the
// world is untraced).
func (r *Rank) emitMPI(t obs.Type, a, b int64, name string) {
	tr := r.w.tr
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{Time: r.w.cl.Eng.Now(), Type: t,
		Node: int32(r.node.Index), Track: int32(r.id), A: a, B: b, Name: name})
}

// collBegin/collEnd bracket a collective phase on the rank's timeline.
// Nested collectives (Allreduce = Reduce + Bcast) nest properly because
// ranks execute them sequentially.
func (r *Rank) collBegin(name string) { r.emitMPI(obs.EvCollBegin, 0, 0, name) }
func (r *Rank) collEnd(name string)   { r.emitMPI(obs.EvCollEnd, 0, 0, name) }

// ID reports the rank number.
func (r *Rank) ID() int { return r.id }

// Node reports the cluster node hosting the rank.
func (r *Rank) Node() *cluster.Node { return r.node }

// Isend posts a non-blocking send of `bytes` to rank dst with the given
// tag, charging the posting cost to the calling task.
func (r *Rank) Isend(t *kernel.Task, dst, tag, bytes int) *Request {
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: Isend to rank %d of %d", dst, len(r.w.ranks)))
	}
	w := r.w
	par := w.par
	t.Compute(par.SendOps + float64(bytes)*par.PackOpsPerByte)
	r.emitMPI(obs.EvMPISend, int64(dst), int64(bytes), "")
	req := w.newRequest('s', dst, tag)
	m := w.newMessage()
	m.src, m.tag, m.bytes = r.id, tag, bytes
	m.sender, m.target = r, w.ranks[dst]
	m.rendezvous = bytes > par.EagerLimit
	if !m.rendezvous {
		// Eager: payload travels immediately; the send buffer is
		// reusable as soon as it is on the wire. A transport failure of
		// the payload is asynchronous (the request already completed), so
		// it poisons the sending rank instead.
		w.xmit(r, r.node, m.target.node, bytes+envelopeBytes, m.deliverFn, nil)
		req.complete(r.id, bytes)
		return req
	}
	// Rendezvous: send an RTS; data moves once the receiver has posted.
	m.sendReq = req
	w.xmit(r, r.node, m.target.node, envelopeBytes, m.deliverFn, m.failRTSFn)
	return req
}

// Irecv posts a non-blocking receive matching (src, tag); src may be
// AnySource.
func (r *Rank) Irecv(t *kernel.Task, src, tag int) *Request {
	t.Compute(r.w.par.RecvOps)
	req := r.w.newRequest('r', src, tag)
	for i, m := range r.mailbox {
		if matches(src, tag, m.src, m.tag) {
			r.mailbox = append(r.mailbox[:i], r.mailbox[i+1:]...)
			r.consume(m, req)
			return req
		}
	}
	r.posted = append(r.posted, req)
	return req
}

// deliver handles an arriving envelope: match a posted receive or queue.
func (r *Rank) deliver(m *message) {
	r.w.bump()
	for i, q := range r.posted {
		if matches(q.peer, q.tag, m.src, m.tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			r.consume(m, q)
			return
		}
	}
	r.mailbox = append(r.mailbox, m)
}

// consume completes a matched pair: eagerly delivered data completes at
// once; a rendezvous RTS triggers CTS + data transfer over the fabric.
func (r *Rank) consume(m *message, req *Request) {
	w := r.w
	w.bump()
	if !m.rendezvous {
		r.emitMPI(obs.EvMPIRecv, int64(m.src), int64(m.bytes), "")
		req.complete(m.src, m.bytes)
		w.putMessage(m)
		return
	}
	// CTS back to the sender, then the payload to us.
	m.recvReq = req
	w.xmit(r, r.node, m.sender.node, envelopeBytes, m.ctsFn, m.failBothFn)
}

// cts runs when the CTS reaches the sender: the payload goes out.
func (m *message) cts() {
	m.w.xmit(m.sender, m.sender.node, m.target.node, m.bytes, m.dataFn, m.failBothFn)
}

// data runs when the rendezvous payload lands at the receiver.
func (m *message) data() {
	m.target.emitMPI(obs.EvMPIRecv, int64(m.src), int64(m.bytes), "")
	m.sendReq.complete(m.src, m.bytes)
	m.recvReq.complete(m.src, m.bytes)
	m.w.putMessage(m)
}

// failRTS fails the send whose RTS was lost and poisons the sender.
func (m *message) failRTS(err error) {
	m.sendReq.fail(err)
	m.sender.fatal(err)
}

// failBoth handles a lost CTS or payload, which strands both sides of
// the handshake: it fails both requests and poisons both ranks.
func (m *message) failBoth(err error) {
	m.sendReq.fail(err)
	m.recvReq.fail(err)
	m.sender.fatal(err)
	m.target.fatal(err)
}

// newRequest takes a request from the free list, or makes one.
func (w *World) newRequest(kind byte, peer, tag int) *Request {
	var q *Request
	if n := len(w.freeReqs); n > 0 {
		q = w.freeReqs[n-1]
		w.freeReqs[n-1] = nil
		w.freeReqs = w.freeReqs[:n-1]
	} else {
		q = new(Request)
	}
	*q = Request{kind: kind, peer: peer, tag: tag}
	return q
}

// newMessage takes a message from the free list, or makes one with its
// fabric callbacks.
func (w *World) newMessage() *message {
	if n := len(w.freeMsgs); n > 0 {
		m := w.freeMsgs[n-1]
		w.freeMsgs[n-1] = nil
		w.freeMsgs = w.freeMsgs[:n-1]
		return m
	}
	m := &message{w: w}
	m.deliverFn = func() { m.target.deliver(m) }
	m.ctsFn = m.cts
	m.dataFn = m.data
	m.failRTSFn = m.failRTS
	m.failBothFn = m.failBoth
	return m
}

// recycles reports whether finished requests and messages go back to
// the free lists. The reliable transport can run a transfer's failure
// callback long after the operation it belongs to completed, when its
// acks are lost, so with RTO set nothing is reused and that late
// callback only ever reaches the objects of its own operation.
func (w *World) recycles() bool { return w.par.RTO <= 0 }

// putRequest returns a request the runtime posted for itself, and has
// waited for, to the free list.
func (w *World) putRequest(q *Request) {
	if w.recycles() {
		w.freeReqs = append(w.freeReqs, q)
	}
}

// putMessage returns a consumed message to the free list.
func (w *World) putMessage(m *message) {
	if w.recycles() {
		m.sendReq, m.recvReq = nil, nil
		w.freeMsgs = append(w.freeMsgs, m)
	}
}

func matches(wantSrc, wantTag, src, tag int) bool {
	return (wantSrc == AnySource || wantSrc == src) && wantTag == tag
}

// Wait blocks until the request completes, charging completion cost. A
// failed request — or an asynchronous transport failure poisoning the
// rank — aborts the rank here, surfacing through RunE.
func (r *Rank) Wait(t *kernel.Task, req *Request) {
	for !req.done && r.err == nil {
		p := t.Proc()
		req.waiter = r
		r.waiting = req
		r.parked = p
		p.Park()
		r.waiting = nil
		req.waiter = nil
	}
	if req.err != nil {
		r.abort(req.err)
	}
	if r.err != nil {
		r.abort(r.err)
	}
	t.Compute(r.w.par.WaitOps)
}

// WaitAll completes all the given requests.
func (r *Rank) WaitAll(t *kernel.Task, reqs ...*Request) {
	for _, q := range reqs {
		r.Wait(t, q)
	}
}

// waitRelease waits for a request the runtime posted for itself and
// hands it back to the free list.
func (r *Rank) waitRelease(t *kernel.Task, q *Request) {
	r.Wait(t, q)
	r.w.putRequest(q)
}

// waitReleaseAll waits for the requests an all-to-all posted into
// r.reqs, in order, and hands each back to the free list.
func (r *Rank) waitReleaseAll(t *kernel.Task) {
	for _, q := range r.reqs {
		r.waitRelease(t, q)
	}
	clear(r.reqs)
	r.reqs = r.reqs[:0]
}

// Send is a blocking send.
func (r *Rank) Send(t *kernel.Task, dst, tag, bytes int) {
	r.waitRelease(t, r.Isend(t, dst, tag, bytes))
}

// Recv is a blocking receive; it returns the matched source.
func (r *Rank) Recv(t *kernel.Task, src, tag int) int {
	req := r.Irecv(t, src, tag)
	r.Wait(t, req)
	from := req.src
	r.w.putRequest(req)
	return from
}

// Sendrecv exchanges messages with dst/src concurrently.
func (r *Rank) Sendrecv(t *kernel.Task, dst, sendTag, sendBytes, src, recvTag int) {
	rq := r.Irecv(t, src, recvTag)
	sq := r.Isend(t, dst, sendTag, sendBytes)
	r.waitRelease(t, rq)
	r.waitRelease(t, sq)
}

// collTag builds a unique internal (negative) tag for collective `seq`,
// round `round`. SPMD code calls collectives in the same order on every
// rank, so sequence numbers agree across ranks.
func collTag(seq, round int) int { return -((seq << 8) | round) - 1 }

// Barrier blocks until every rank has entered it (dissemination
// algorithm, ⌈log2 P⌉ rounds).
func (r *Rank) Barrier(t *kernel.Task) {
	p := len(r.w.ranks)
	seq := r.collSeq
	r.collSeq++
	r.collBegin("barrier")
	defer r.collEnd("barrier")
	if p == 1 {
		return
	}
	round := 0
	for k := 1; k < p; k <<= 1 {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		tag := collTag(seq, round)
		sq := r.Isend(t, dst, tag, 1)
		rq := r.Irecv(t, src, tag)
		r.waitRelease(t, sq)
		r.waitRelease(t, rq)
		round++
	}
}

// Bcast distributes `bytes` from root to every rank (binomial tree).
func (r *Rank) Bcast(t *kernel.Task, root, bytes int) {
	p := len(r.w.ranks)
	seq := r.collSeq
	r.collSeq++
	r.collBegin("bcast")
	defer r.collEnd("bcast")
	if p == 1 {
		return
	}
	tag := collTag(seq, 0)
	rel := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			r.Recv(t, src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			r.Send(t, dst, tag, bytes)
		}
		mask >>= 1
	}
}

// Reduce combines `bytes` of operands onto root (binomial tree); each
// combine charges arithmetic cost.
func (r *Rank) Reduce(t *kernel.Task, root, bytes int) {
	p := len(r.w.ranks)
	seq := r.collSeq
	r.collSeq++
	r.collBegin("reduce")
	defer r.collEnd("reduce")
	if p == 1 {
		return
	}
	tag := collTag(seq, 0)
	rel := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask == 0 {
			src := rel | mask
			if src < p {
				r.Recv(t, (src+root)%p, tag)
				t.Compute(float64(bytes) * r.w.par.ReduceOpsPerByte)
			}
		} else {
			dst := (rel&^mask + root) % p
			r.Send(t, dst, tag, bytes)
			break
		}
		mask <<= 1
	}
}

// Allreduce combines operands on every rank (reduce to 0, then
// broadcast).
func (r *Rank) Allreduce(t *kernel.Task, bytes int) {
	r.collBegin("allreduce")
	defer r.collEnd("allreduce")
	r.Reduce(t, 0, bytes)
	r.Bcast(t, 0, bytes)
}

// Alltoall exchanges bytesPerRank with every other rank using pairwise
// exchange: XOR partners when the size is a power of two, a ring
// schedule otherwise.
func (r *Rank) Alltoall(t *kernel.Task, bytesPerRank int) {
	p := len(r.w.ranks)
	seq := r.collSeq
	r.collSeq++
	r.collBegin("alltoall")
	defer r.collEnd("alltoall")
	if p == 1 {
		// Local transpose: just the copy cost.
		t.Compute(float64(bytesPerRank) * r.w.par.PackOpsPerByte)
		return
	}
	// Post every receive and send at once and wait for all of them —
	// MPICH's medium-message algorithm. This floods the fabric with P-1
	// concurrent flows per rank, which is what makes all-to-all patterns
	// collapse on commodity Ethernet (netsim's incast model).
	tag := collTag(seq, 0)
	for step := 1; step < p; step++ {
		src := (r.id - step + p) % p
		r.reqs = append(r.reqs, r.Irecv(t, src, tag))
	}
	for step := 1; step < p; step++ {
		dst := (r.id + step) % p
		r.reqs = append(r.reqs, r.Isend(t, dst, tag, bytesPerRank))
	}
	r.waitReleaseAll(t)
}
