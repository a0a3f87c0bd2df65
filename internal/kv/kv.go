// Package kv is a sharded key-value service built on the active-message
// layer: GET/PUT/SCAN requests travel as AM requests into per-server
// remote queues — scanned by the message proxies on the proxy design
// points, so the paper's protection semantics carry over unchanged — and
// replies come back the same way. Keys shard across servers by hash;
// PUTs fan out to a configurable number of replicas, and the primary
// acknowledges the client only after every replica has. The service
// models time and bytes, not contents: values are synthesized, no server
// stores keys or versions, and each keeps only the counters that reports
// read and the replication bookkeeping its acknowledgements need.
package kv

import (
	"fmt"

	"mproxy/internal/am"
	"mproxy/internal/sim"
	"mproxy/internal/trace/flight"
)

// Op enumerates the service's operations.
type Op int

const (
	OpGet Op = iota
	OpPut
	OpScan
	numOps
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpScan:
		return "SCAN"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// maxScanPayload caps a SCAN reply's payload bytes, like a real
// service's response-size limit.
const maxScanPayload = 4096

// Config parameterizes a service instance.
type Config struct {
	// Servers lists the server ranks in shard order.
	Servers []int
	// ValueBytes is the synthesized value size for GETs and PUTs.
	ValueBytes int
	// ScanCount is the number of records a SCAN returns.
	ScanCount int
	// Replication is the number of copies a PUT writes (1 = primary
	// only); clamped to the server count.
	Replication int
}

// repWait tracks one replicated PUT at its primary until every follower
// has acknowledged; need is 0 once it has.
type repWait struct {
	need   int32
	client int32
	flags  int64
	issued int64
}

// repRing holds a shard's in-flight replicated PUTs by their sequential
// replication id: ids head..next-1 sit at id mod len(waits), completed
// ones with need 0 until head passes them. It doubles when every slot is
// in that window, so it holds at most twice the span from the oldest
// unacknowledged PUT to the newest.
type repRing struct {
	waits      []repWait
	head, next uint64
}

// add records a new replicated PUT and returns its id.
func (r *repRing) add(w repWait) uint64 {
	if r.next-r.head == uint64(len(r.waits)) {
		grown := make([]repWait, max(1, 2*len(r.waits)))
		for id := r.head; id < r.next; id++ {
			grown[id%uint64(len(grown))] = r.waits[id%uint64(len(r.waits))]
		}
		r.waits = grown
	}
	id := r.next
	r.next++
	r.waits[id%uint64(len(r.waits))] = w
	return id
}

// get returns id's record, or nil when id is not in flight.
func (r *repRing) get(id uint64) *repWait {
	if id < r.head || id >= r.next {
		return nil
	}
	w := &r.waits[id%uint64(len(r.waits))]
	if w.need == 0 {
		return nil
	}
	return w
}

// retire advances head past the completed records at the window's start.
func (r *repRing) retire() {
	for r.head < r.next && r.waits[r.head%uint64(len(r.waits))].need == 0 {
		r.head++
	}
}

// shard is one server's state. A server touches exclusively its own
// shard, so the shards of a parallel run never contend and the aggregate
// accessors below sum deterministically.
type shard struct {
	si         int     // shard index: position in Config.Servers
	reps       repRing // in-flight replicated PUTs; empty without replication
	served     [numOps]int64
	replicated int64
	pools      *enginePools // the server node engine's pools
}

// Service is the cluster-wide KV state: handler ids, per-server shards,
// and the synthesized-value scratch.
type Service struct {
	l      *am.Layer
	cfg    Config
	shards []shard  // in shard order
	byRank []*shard // server rank -> its shard; nil for non-server ranks
	val    []byte   // synthesized-value scratch, sized once at New

	// OnReply, when set, observes every reply arriving at a client:
	// the client's rank, the operation, and the request's echoed flags
	// and issue timestamp. The open-loop workload points this at its
	// latency recorder.
	OnReply func(client int, op Op, flags, issuedNs int64)

	// Flight, when set, receives per-request phase marks: handler start
	// at the primary, service completion, last follower ack, and reply
	// delivery. Request identity rides the high bits of the flags word
	// (flight.FlagsWithID), which the protocol already echoes — argument
	// values never affect simulated cost, so recording is timing-free.
	Flight *flight.Recorder

	hGet, hPut, hScan       int
	hRep, hRepAck           int
	hGetRe, hPutRe, hScanRe int
}

// New registers the service's handlers on l. Call before communication
// starts, like any AM registration.
func New(l *am.Layer, cfg Config) *Service {
	if len(cfg.Servers) == 0 {
		panic("kv: no servers")
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(cfg.Servers) {
		cfg.Replication = len(cfg.Servers)
	}
	s := &Service{l: l, cfg: cfg, shards: make([]shard, len(cfg.Servers))}
	maxRank := 0
	for _, rank := range cfg.Servers {
		maxRank = max(maxRank, rank)
	}
	s.byRank = make([]*shard, maxRank+1)
	for i, rank := range cfg.Servers {
		sh := &s.shards[i]
		sh.si = i
		sh.pools = sim.Pool[enginePools](l.Port(rank).Endpoint().Node().Eng)
		s.byRank[rank] = sh
	}
	// Pre-size the value scratch to the largest payload any handler
	// returns: value() then never reallocates, so concurrent shards only
	// ever read the slice header.
	maxVal := cfg.ValueBytes
	if n := cfg.ScanCount * cfg.ValueBytes; n > maxVal {
		if n > maxScanPayload {
			n = maxScanPayload
		}
		if n > maxVal {
			maxVal = n
		}
	}
	s.val = make([]byte, maxVal)
	s.hGet = l.RegisterTask(s.onGet)
	s.hPut = l.RegisterTask(s.onPut)
	s.hScan = l.RegisterTask(s.onScan)
	s.hRep = l.RegisterTask(s.onRep)
	s.hRepAck = l.RegisterTask(s.onRepAck)
	s.hGetRe = s.replyHandler(OpGet)
	s.hPutRe = s.replyHandler(OpPut)
	s.hScanRe = s.replyHandler(OpScan)
	return s
}

func (s *Service) replyHandler(op Op) int {
	return s.l.RegisterTask(func(p *am.Port, t *sim.Task, src int, args []int64, payload []byte, k func()) {
		if s.Flight != nil {
			if fid := flight.FlagsID(args[0]); fid != 0 {
				s.Flight.Done(fid)
			}
		}
		if s.OnReply != nil {
			s.OnReply(p.Rank(), op, args[0], args[1])
		}
		k()
	})
}

// ShardIndex returns the shard index owning key.
func (s *Service) ShardIndex(key uint64) int {
	return int(mix(key) % uint64(len(s.cfg.Servers)))
}

// Primary returns the rank of the server owning key's shard.
func (s *Service) Primary(key uint64) int {
	return s.cfg.Servers[s.ShardIndex(key)]
}

// WireBytes returns the AM record sizes of op's request and reply as
// they travel the network (the per-packet comm.HeaderSize comes on top).
func (s *Service) WireBytes(op Op) (req, rep int) {
	switch op {
	case OpGet:
		return am.RecordBytes(3, 0), am.RecordBytes(2, s.cfg.ValueBytes)
	case OpPut:
		return am.RecordBytes(3, s.cfg.ValueBytes), am.RecordBytes(2, 0)
	case OpScan:
		n := s.cfg.ScanCount * s.cfg.ValueBytes
		if n > maxScanPayload {
			n = maxScanPayload
		}
		return am.RecordBytes(3, 0), am.RecordBytes(2, n)
	}
	return 0, 0
}

// flightServe marks a tracked request's handler start on the flight
// recorder (sampling the AM queue depth behind it) and wraps k to mark
// service completion once the reply or last replica write is submitted.
func (s *Service) flightServe(p *am.Port, sh *shard, flags int64, k func()) func() {
	fid := flight.FlagsID(flags)
	if s.Flight == nil || fid == 0 {
		return k
	}
	s.Flight.ServerStart(fid, p.Pending())
	sp := sh.pools
	m := sp.marks.Get()
	if m == nil {
		m = &serviceMark{}
		m.doneK = m.done
	}
	m.pool, m.rec, m.fid, m.k = sp, s.Flight, fid, k
	return m.doneK
}

// enginePools holds one engine's recycled continuation frames
// (sim.Pool), shared by every server whose node runs on the engine. A
// frame takes its pool with its other fields when it is taken, and only
// serve loops on that engine touch the pool, so the shards of a parallel
// run never share one.
type enginePools struct {
	marks sim.Freelist[serviceMark]
	reps  sim.Freelist[repChain]
}

// serviceMark is flightServe's wrapped continuation: it marks service
// completion on the recorder, then runs the handler's k.
type serviceMark struct {
	pool  *enginePools
	rec   *flight.Recorder
	fid   uint64
	k     func()
	doneK func() // prebuilt m.done
}

func (m *serviceMark) done() {
	rec, fid, k := m.rec, m.fid, m.k
	pool := m.pool
	m.pool, m.rec, m.k = nil, nil, nil
	pool.marks.Put(m)
	rec.ServiceDone(fid)
	k()
}

// repChain is one replicated PUT's follower-write chain at its primary,
// resumed by a prebuilt continuation after each follower write is
// submitted.
type repChain struct {
	pool  *enginePools
	s     *Service
	p     *am.Port
	t     *sim.Task
	si    int // the primary's shard index
	id    uint64
	key   uint64 // rides each follower write, which sizes its record
	j     int
	k     func()
	nextK func() // prebuilt c.next
}

// Served returns how many requests of op the servers have processed.
func (s *Service) Served(op Op) int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].served[op]
	}
	return n
}

// Replicated returns how many follower copies PUTs have written.
func (s *Service) Replicated() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].replicated
	}
	return n
}

// GetTask issues a GET for key from the client behind p. flags and
// issuedNs are echoed verbatim in the reply; k runs at submission.
func (s *Service) GetTask(p *am.Port, t *sim.Task, key uint64, flags, issuedNs int64, k func()) {
	p.SendTask(t, s.Primary(key), s.hGet, []int64{flags, issuedNs, int64(key)}, nil, k)
}

// PutTask issues a PUT of the configured value size for key.
func (s *Service) PutTask(p *am.Port, t *sim.Task, key uint64, flags, issuedNs int64, k func()) {
	p.SendTask(t, s.Primary(key), s.hPut, []int64{flags, issuedNs, int64(key)}, s.value(s.cfg.ValueBytes), k)
}

// ScanTask issues a SCAN of ScanCount records starting at key.
func (s *Service) ScanTask(p *am.Port, t *sim.Task, key uint64, flags, issuedNs int64, k func()) {
	p.SendTask(t, s.Primary(key), s.hScan, []int64{flags, issuedNs, int64(key)}, nil, k)
}

func (s *Service) onGet(p *am.Port, t *sim.Task, src int, args []int64, payload []byte, k func()) {
	sh := s.byRank[p.Rank()]
	sh.served[OpGet]++
	k = s.flightServe(p, sh, args[0], k)
	p.SendTask(t, src, s.hGetRe, args[:2], s.value(s.cfg.ValueBytes), k)
}

func (s *Service) onPut(p *am.Port, t *sim.Task, src int, args []int64, payload []byte, k func()) {
	sh := s.byRank[p.Rank()]
	sh.served[OpPut]++
	k = s.flightServe(p, sh, args[0], k)
	if s.cfg.Replication == 1 {
		p.SendTask(t, src, s.hPutRe, args[:2], nil, k)
		return
	}
	id := sh.reps.add(repWait{need: int32(s.cfg.Replication - 1), client: int32(src), flags: args[0], issued: args[1]})
	sp := sh.pools
	c := sp.reps.Get()
	if c == nil {
		c = &repChain{}
		c.nextK = c.next
	}
	c.pool, c.s, c.p, c.t, c.si, c.id, c.key, c.j, c.k = sp, s, p, t, sh.si, id, uint64(args[2]), 1, k
	c.next()
}

// next submits the chain's next follower write of a replicated PUT:
// copies land on the Replication-1 servers after the primary in shard
// order. After the last one the chain returns to its pool and runs k.
func (c *repChain) next() {
	s := c.s
	if c.j >= s.cfg.Replication {
		k, pool := c.k, c.pool
		c.pool, c.s, c.p, c.t, c.k = nil, nil, nil, nil, nil
		pool.reps.Put(c)
		k()
		return
	}
	dst := s.cfg.Servers[(c.si+c.j)%len(s.cfg.Servers)]
	c.j++
	c.p.SendTask(c.t, dst, s.hRep, []int64{int64(c.id), int64(c.key)}, nil, c.nextK)
}

func (s *Service) onRep(p *am.Port, t *sim.Task, src int, args []int64, payload []byte, k func()) {
	s.byRank[p.Rank()].replicated++
	p.SendTask(t, src, s.hRepAck, args[:1], nil, k)
}

func (s *Service) onRepAck(p *am.Port, t *sim.Task, src int, args []int64, payload []byte, k func()) {
	sh := s.byRank[p.Rank()]
	id := uint64(args[0])
	w := sh.reps.get(id)
	if w == nil {
		panic(fmt.Sprintf("kv: server %d acked unknown replication %d", src, id))
	}
	if w.need--; w.need > 0 {
		k()
		return
	}
	if s.Flight != nil {
		if fid := flight.FlagsID(w.flags); fid != 0 {
			s.Flight.RepAcked(fid)
		}
	}
	client, flags, issued := int(w.client), w.flags, w.issued
	sh.reps.retire()
	p.SendTask(t, client, s.hPutRe, []int64{flags, issued}, nil, k)
}

func (s *Service) onScan(p *am.Port, t *sim.Task, src int, args []int64, payload []byte, k func()) {
	sh := s.byRank[p.Rank()]
	sh.served[OpScan]++
	k = s.flightServe(p, sh, args[0], k)
	n := s.cfg.ScanCount * s.cfg.ValueBytes
	if n > maxScanPayload {
		n = maxScanPayload
	}
	p.SendTask(t, src, s.hScanRe, args[:2], s.value(n), k)
}

// value returns an n-byte synthesized payload. The scratch is shared and
// sized at New: every AM submission copies the record at send time, and
// the slice header is never rewritten, so concurrent shards only read.
func (s *Service) value(n int) []byte {
	if cap(s.val) < n {
		panic(fmt.Sprintf("kv: %d-byte value exceeds the scratch sized at New", n))
	}
	return s.val[:n]
}

// mix is the splitmix64 finalizer, used to spread keys across shards.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
