package worker

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dgcl/internal/clock"
	"dgcl/internal/comm/wire"
	"dgcl/internal/runtime"
)

// The supervised coordinator (DESIGN.md §15). A static join/start/result/bye
// run is the degenerate fast path of a membership layer: every worker holds
// a lease renewed by heartbeats, missed deadlines accumulate HealthTracker
// strikes (stalled → suspect → dead), a connection loss is immediate
// fail-stop evidence, and a membership change — death, graceful leave,
// rejoin — rolls the run forward one generation instead of tearing it down. Within the rejoin grace window a restarted
// worker can reclaim its dead slot and every member catches up from the
// newest checkpoint epoch they all hold; after the window the coordinator
// degrades the dead members' ranks onto the survivors over live sockets
// (System.Degrade in every surviving process).

// SuperviseOptions configures the supervised coordinator. The zero value of
// every field selects a default.
type SuperviseOptions struct {
	// Workers is the number of worker processes the run spans (required).
	Workers int
	// Spec describes the run (required).
	Spec Spec
	// Heartbeat is the renewal interval workers are told to beat at.
	// Default 500ms.
	Heartbeat time.Duration
	// DownAfter is the consecutive-strike threshold before a silent worker
	// is judged dead (0 = runtime.DefaultDownAfter). Explicit evidence (a
	// dropped control connection) skips the strikes.
	DownAfter int
	// RejoinWait is the grace window after a death during which a restarted
	// worker may reclaim its slot before the coordinator degrades onto the
	// survivors. Default 15s.
	RejoinWait time.Duration
	// Clock injects time for lease arithmetic and wakeups (tests use
	// clock.Fake). Default: the real clock.
	Clock clock.Clock
	// OnEvent, when non-nil, observes every membership transition.
	OnEvent func(MemberEvent)
}

// MemberEvent is one observed membership transition.
type MemberEvent struct {
	// Gen is the membership generation the event belongs to.
	Gen uint64
	// Member is the stable slot id of the worker.
	Member int
	// State names the transition: joined, live, suspect, dead, left,
	// rejoined, barrier, done, fenced, degraded.
	State string
	// Epoch is the member's completed-epoch count at the event.
	Epoch int
	// When is the coordinator clock's time of the event.
	When time.Time
	// Detail carries free-form context (blame lists, reasons).
	Detail string
}

// Membership phases of one slot.
type memberPhase int

const (
	phJoined    memberPhase = iota // admitted (or rejoined), awaiting prepare
	phPreparing                    // prepare sent, awaiting ready
	phRunning                      // mesh sent, training under lease
	phWaiting                      // faulted at an epoch barrier, awaiting next prepare
	phDone                         // result received, awaiting bye
	phDead                         // lease verdict or connection loss; slot rejoinable
	phLeft                         // graceful leave; slot rejoinable
	phRemoved                      // degraded out of the run for good
)

// member is one worker slot. The slot id is stable across rejoin (the
// restarted process reclaims it); the per-generation node id is the slot's
// position among the generation's active members.
type member struct {
	slot    int
	conn    net.Conn
	cc      *ctrlConn
	ranks   []int // external device ids this slot hosts
	phase   memberPhase
	suspect bool
	addr    string // data listener for the current generation
	ckpts   []int  // intact checkpoint epochs from the latest ready
	epoch   int    // completed epochs
	sum     uint64
	sumOK   bool
}

// Event-loop events.
const (
	evJoin = iota
	evMsg
	evGone
	evTick
)

type supEvent struct {
	kind int
	conn net.Conn
	msg  ctrlMsg
	slot int
	err  error
}

type lossRec struct {
	gen  uint64
	loss float64
}

type supervisor struct {
	opts  SuperviseOptions
	spec  Spec
	clock clock.Clock
	runID string
	ln    net.Listener

	events chan supEvent
	done   chan struct{}
	wg     sync.WaitGroup

	members  []*member
	gen      uint64
	planSum  uint64
	havePlan bool
	down     []int // cumulative degraded-out external devices, ascending
	degraded bool
	leases   *leases

	lossAt map[int]lossRec

	// Recovery timing: detection of the current incident and the generation
	// it happened in; resolved by the first progress beat of a later
	// generation.
	measuring bool
	detectAt  time.Time
	detectGen uint64

	failure error
}

func (o SuperviseOptions) withDefaults() SuperviseOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.DownAfter <= 0 {
		o.DownAfter = runtime.DefaultDownAfter
	}
	if o.RejoinWait <= 0 {
		o.RejoinWait = 15 * time.Second
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

// prepareTimeout bounds each member's system build per generation.
const prepareTimeout = 2 * time.Minute

// Supervise serves one supervised multi-process run: it admits Workers
// joins, then drives generations of prepare → ready → mesh → train until
// every member reports, recovering from member death by rejoin (bit-identical
// catch-up from the common checkpoint epoch) or, after the grace window, by
// degrading the dead ranks onto the survivors. The coordinator is pure
// control plane — no tensor crosses it.
func Supervise(ctx context.Context, ln net.Listener, opts SuperviseOptions) (*Report, error) {
	opts = opts.withDefaults()
	spec := opts.Spec.withDefaults()
	opts.Spec = spec
	if opts.Workers < 1 {
		return nil, fmt.Errorf("worker: need at least 1 worker, got %d", opts.Workers)
	}
	if opts.Workers > spec.GPUs {
		return nil, fmt.Errorf("worker: %d workers for %d GPUs: some would host no rank", opts.Workers, spec.GPUs)
	}
	s := &supervisor{
		opts:   opts,
		spec:   spec,
		clock:  opts.Clock,
		runID:  fmt.Sprintf("%s-%x", clusterID(spec), opts.Clock.Now().UnixNano()),
		ln:     ln,
		events: make(chan supEvent, 256),
		done:   make(chan struct{}),
		lossAt: make(map[int]lossRec),
	}
	defer s.shutdown()
	s.wg.Add(1)
	go s.acceptLoop(ctx)

	rep, err := s.run(ctx)
	if err != nil {
		// Best effort: members blocked on their control reads learn the
		// verdict instead of diagnosing a bare connection loss.
		bye := ctrlMsg{T: mtBye, Gen: s.gen, Err: err.Error()}
		for _, m := range s.activeMembers() {
			_ = m.cc.send(bye) //dgclvet:ignore errwrap shutdown notice is best-effort; the returned error carries the verdict
		}
		return nil, err
	}
	return rep, nil
}

func (s *supervisor) run(ctx context.Context) (*Report, error) {
	if err := s.gather(ctx); err != nil {
		return nil, err
	}
	for {
		// The churn budget: at most two membership generations per GPU.
		if maxChanges := 2 * s.opts.Spec.GPUs; int(s.gen) > maxChanges {
			return nil, fmt.Errorf("worker: membership churn budget (%d generations) exhausted", maxChanges)
		}
		if err := s.startGeneration(ctx); err != nil {
			return nil, err
		}
		complete, err := s.runGeneration(ctx)
		if err != nil {
			return nil, err
		}
		if complete {
			return s.finish()
		}
	}
}

// shutdown tears the control plane down: the listener, every member
// connection, and (via done) every blocked producer goroutine, then waits
// for them so callers can goroutine-leak-check immediately after.
func (s *supervisor) shutdown() {
	close(s.done)
	s.ln.Close()
	for _, m := range s.members {
		m.conn.Close()
	}
	s.wg.Wait()
}

// acceptLoop admits control connections for the life of the run — joins
// during gather, rejoins during recovery — under a rolling accept deadline so
// shutdown and context cancellation are honored promptly.
func (s *supervisor) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	type deadliner interface{ SetDeadline(time.Time) error }
	dl, _ := s.ln.(deadliner)
	for {
		select {
		case <-s.done:
			return
		case <-ctx.Done():
			return
		default:
		}
		if dl != nil {
			if err := dl.SetDeadline(time.Now().Add(time.Second)); err != nil {
				return
			}
		}
		conn, err := s.ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return // listener closed
		}
		s.wg.Add(1)
		go s.handleJoin(conn)
	}
}

// handleJoin reads one join message off a fresh connection and hands it to
// the event loop (which owns all admission decisions).
func (s *supervisor) handleJoin(conn net.Conn) {
	defer s.wg.Done()
	msg, err := readCtrl(conn, controlTimeout)
	if err != nil || msg.T != mtJoin {
		conn.Close()
		return
	}
	select {
	case s.events <- supEvent{kind: evJoin, conn: conn, msg: msg}:
	case <-s.done:
		conn.Close()
	}
}

// reader pumps one member connection into the event loop until it dies.
func (s *supervisor) reader(slot int, conn net.Conn) {
	defer s.wg.Done()
	for {
		msg, err := readCtrl(conn, resultTimeout)
		if err != nil {
			select {
			case s.events <- supEvent{kind: evGone, slot: slot, conn: conn, err: err}:
			case <-s.done:
			}
			return
		}
		select {
		case s.events <- supEvent{kind: evMsg, slot: slot, conn: conn, msg: msg}:
		case <-s.done:
			conn.Close()
			return
		}
	}
}

// next blocks for the next event, waking at the given absolute time (zero =
// no wakeup) on the injected clock.
func (s *supervisor) next(ctx context.Context, wake time.Time) (supEvent, error) {
	var timer <-chan time.Time
	var stop func() bool
	if !wake.IsZero() {
		d := wake.Sub(s.clock.Now())
		if d < 0 {
			d = 0
		}
		timer, stop = s.clock.After(d)
	}
	select {
	case ev := <-s.events:
		if stop != nil {
			stop()
		}
		return ev, nil
	case <-timer:
		return supEvent{kind: evTick}, nil
	case <-ctx.Done():
		if stop != nil {
			stop()
		}
		return supEvent{}, ctx.Err()
	}
}

func (s *supervisor) event(slot int, state string, epoch int, detail string) {
	if s.opts.OnEvent == nil {
		return
	}
	s.opts.OnEvent(MemberEvent{Gen: s.gen, Member: slot, State: state, Epoch: epoch, When: s.clock.Now(), Detail: detail})
}

// reject answers a join with a typed rejection and closes the connection.
func (s *supervisor) reject(conn net.Conn, code, detail string) {
	_ = wire.WriteControl(conn, ctrlMsg{T: mtReject, Gen: s.gen, Code: code, Err: detail}, controlTimeout) //dgclvet:ignore errwrap rejection is best-effort; the connection closes either way
	conn.Close()
}

// gather admits the initial membership: Workers fresh joins.
func (s *supervisor) gather(ctx context.Context) error {
	ranks := splitRanks(s.spec.GPUs, s.opts.Workers)
	for len(s.members) < s.opts.Workers {
		ev, err := s.next(ctx, time.Time{})
		if err != nil {
			return err
		}
		switch ev.kind {
		case evJoin:
			msg := ev.msg
			switch {
			case msg.Proto != ProtoVersion:
				s.reject(ev.conn, CodeProtoMismatch, fmt.Sprintf("coordinator speaks protocol %d, worker sent %d", ProtoVersion, msg.Proto))
			case msg.Rejoin:
				s.reject(ev.conn, CodeRunMismatch, fmt.Sprintf("rejoin for run %q, but run %q has not started", msg.RunID, s.runID))
			default:
				slot := len(s.members)
				m := &member{slot: slot, conn: ev.conn, cc: &ctrlConn{conn: ev.conn}, ranks: ranks[slot], phase: phJoined}
				s.members = append(s.members, m)
				s.event(slot, "joined", 0, "")
				s.wg.Add(1)
				go s.reader(slot, ev.conn)
			}
		case evGone:
			if m := s.memberFor(ev.slot, ev.conn); m != nil {
				return fmt.Errorf("worker: member %d lost before start: %w", ev.slot, ev.err)
			}
		case evMsg:
			// Pre-start chatter: nothing is expected before prepare; drop it.
		}
	}
	return nil
}

// activeMembers returns the slots participating in the current (or next)
// generation — joined, rejoined, at a barrier, or done — ascending by slot.
func (s *supervisor) activeMembers() []*member {
	var out []*member
	for _, m := range s.members {
		switch m.phase {
		case phJoined, phPreparing, phRunning, phWaiting, phDone:
			out = append(out, m)
		}
	}
	return out
}

// rejoinableSlots returns the dead/left slots a restarted worker may reclaim.
func (s *supervisor) rejoinableSlots() []*member {
	var out []*member
	for _, m := range s.members {
		if m.phase == phDead || m.phase == phLeft {
			out = append(out, m)
		}
	}
	return out
}

func repDev(m *member) int {
	if len(m.ranks) > 0 {
		return m.ranks[0]
	}
	return m.slot
}

// startGeneration rolls the membership forward one generation: prepare every
// active member, collect their readies (fresh data listener addresses, plan
// digests, intact checkpoint epochs), negotiate the common resume epoch, and
// mesh them.
func (s *supervisor) startGeneration(ctx context.Context) error {
	s.gen++
	// Plan agreement is per generation: a degrade changes the plan for
	// everyone, legitimately. Each generation's first ready re-seeds the
	// digest the rest must match.
	s.havePlan = false
	active := s.activeMembers()
	if len(active) == 0 {
		return errors.New("worker: no members remain")
	}
	for i, m := range active {
		m.phase = phPreparing
		m.suspect = false
		m.addr, m.ckpts = "", nil
		err := m.cc.send(ctrlMsg{
			T: mtPrepare, Gen: s.gen, RunID: s.runID, Spec: &s.spec,
			You: i, Ranks: m.ranks, Down: s.down, Beat: int64(s.opts.Heartbeat),
		})
		if err != nil {
			return fmt.Errorf("worker: prepare member %d: %w", m.slot, err)
		}
	}
	deadline := s.clock.Now().Add(prepareTimeout)
	for {
		pending := 0
		for _, m := range active {
			if m.phase == phPreparing && m.addr == "" {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		ev, err := s.next(ctx, deadline)
		if err != nil {
			return err
		}
		switch ev.kind {
		case evTick:
			if !s.clock.Now().Before(deadline) {
				return fmt.Errorf("worker: generation %d: %d members never sent ready", s.gen, pending)
			}
		case evJoin:
			// The recovery window closed when this generation started.
			s.reject(ev.conn, CodeFenced, fmt.Sprintf("generation %d already forming", s.gen))
		case evGone:
			if m := s.memberFor(ev.slot, ev.conn); m != nil {
				return fmt.Errorf("worker: member %d lost during prepare: %w", m.slot, ev.err)
			}
		case evMsg:
			if m := s.memberFor(ev.slot, ev.conn); m != nil {
				s.handleMemberMsg(m, ev.msg)
			}
		}
		if s.failure != nil {
			return s.failure
		}
	}
	resume := commonResume(active)
	nodes := make([]wire.NodeSpec, len(active))
	for i, m := range active {
		nodes[i] = wire.NodeSpec{Addr: m.addr, Ranks: m.ranks}
	}
	s.leases = newLeases(s.clock, 4*s.opts.Heartbeat, s.opts.DownAfter)
	for _, m := range active {
		if err := m.cc.send(ctrlMsg{T: mtMesh, Gen: s.gen, Nodes: nodes, Start: resume}); err != nil {
			return fmt.Errorf("worker: mesh member %d: %w", m.slot, err)
		}
		m.phase = phRunning
		s.leases.track(m.slot, repDev(m))
		s.event(m.slot, "live", m.epoch, fmt.Sprintf("resume epoch %d", resume))
	}
	return nil
}

// commonResume is the newest checkpoint epoch every active member holds
// intact (0 — a fresh start — is always common).
func commonResume(active []*member) int {
	counts := make(map[int]int)
	for _, m := range active {
		for _, e := range m.ckpts {
			counts[e]++
		}
	}
	resume := 0
	epochs := make([]int, 0, len(counts))
	for e := range counts {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	for _, e := range epochs {
		if counts[e] == len(active) && e > resume {
			resume = e
		}
	}
	return resume
}

// runGeneration drives one generation to a verdict: true when every active
// member reported a result (the run is complete), false when a membership
// change was assembled (rejoin admitted, stall cleared, or degrade applied)
// and the next generation should start.
func (s *supervisor) runGeneration(ctx context.Context) (bool, error) {
	var rejoinBy time.Time
	for {
		if s.failure != nil {
			return false, s.failure
		}
		active := s.activeMembers()
		if len(active) == 0 {
			return false, errors.New("worker: every member was lost")
		}
		allDone, barrier := true, true
		for _, m := range active {
			if m.phase != phDone {
				allDone = false
			}
			if m.phase == phRunning || m.phase == phPreparing {
				barrier = false
			}
		}
		if allDone {
			return true, nil
		}
		deadSlots := s.rejoinableSlots()
		if len(deadSlots) > 0 && rejoinBy.IsZero() {
			rejoinBy = s.clock.Now().Add(s.opts.RejoinWait)
		}
		if barrier {
			if len(deadSlots) == 0 {
				// Rejoins are admitted (or the faults were spurious — a
				// stall that cleared): rerun with the full membership.
				return false, nil
			}
			if !s.clock.Now().Before(rejoinBy) {
				s.applyDegrade(deadSlots)
				return false, nil
			}
		}
		wake := rejoinBy
		if s.leases != nil {
			if d, ok := s.leases.nextDeadline(); ok && (wake.IsZero() || d.Before(wake)) {
				wake = d
			}
		}
		ev, err := s.next(ctx, wake)
		if err != nil {
			return false, err
		}
		switch ev.kind {
		case evTick:
			s.checkLeases()
		case evJoin:
			s.admitRejoin(ev.conn, ev.msg)
		case evGone:
			if m := s.memberFor(ev.slot, ev.conn); m != nil {
				s.leases.evidence(m.slot)
				s.noteDeparture(m, phDead, "dead", fmt.Sprintf("connection lost: %v", ev.err))
			}
		case evMsg:
			if m := s.memberFor(ev.slot, ev.conn); m != nil {
				s.handleMemberMsg(m, ev.msg)
			}
		}
	}
}

// memberFor resolves an event's slot, discarding events from a previous
// incarnation's connection (a rejoined slot has a fresh conn; the old
// reader's trailing evGone must not kill the new member).
func (s *supervisor) memberFor(slot int, conn net.Conn) *member {
	if slot < 0 || slot >= len(s.members) {
		return nil
	}
	m := s.members[slot]
	if m.conn != conn {
		return nil
	}
	switch m.phase {
	case phDead, phLeft, phRemoved:
		return nil
	}
	return m
}

// checkLeases expires overdue leases: strikes mark members suspect, verdicts
// mark them dead.
func (s *supervisor) checkLeases() {
	if s.leases == nil {
		return
	}
	suspects, dead := s.leases.check()
	for _, slot := range suspects {
		m := s.members[slot]
		if m.phase == phRunning && !m.suspect {
			m.suspect = true
			s.event(slot, "suspect", m.epoch, fmt.Sprintf("lease expired (strike %d)", s.leases.health.Strikes(repDev(m))))
		}
	}
	for _, slot := range dead {
		m := s.members[slot]
		if m.phase == phRunning {
			s.noteDeparture(m, phDead, "dead", "lease strikes reached verdict")
		}
	}
}

// noteDeparture records a member leaving the generation (death or drain) and
// starts the recovery stopwatch on the first departure of an incident.
func (s *supervisor) noteDeparture(m *member, phase memberPhase, state, detail string) {
	m.phase = phase
	m.suspect = false
	if s.leases != nil {
		s.leases.drop(m.slot)
	}
	if !s.measuring {
		s.measuring = true
		s.detectAt = s.clock.Now()
		s.detectGen = s.gen
	}
	s.event(m.slot, state, m.epoch, detail)
}

// admitRejoin validates a mid-run join: protocol version, run identity, plan
// digest, and an open slot — each failure a distinct typed rejection. A
// degraded run fences rejoins out entirely (the dead ranks are gone; elastic
// re-expansion is ROADMAP item 5).
func (s *supervisor) admitRejoin(conn net.Conn, msg ctrlMsg) {
	switch {
	case msg.Proto != ProtoVersion:
		s.reject(conn, CodeProtoMismatch, fmt.Sprintf("coordinator speaks protocol %d, worker sent %d", ProtoVersion, msg.Proto))
		return
	case !msg.Rejoin:
		s.reject(conn, CodeRunFull, fmt.Sprintf("run %q already has %d members", s.runID, s.opts.Workers))
		return
	case msg.RunID != s.runID:
		s.reject(conn, CodeRunMismatch, fmt.Sprintf("rejoin presents run %q, this is run %q", msg.RunID, s.runID))
		return
	case s.degraded:
		s.reject(conn, CodeFenced, "membership already degraded past your generation")
		return
	case s.havePlan && msg.Plan != s.planSum:
		s.reject(conn, CodePlanMismatch, fmt.Sprintf("rejoin presents plan %#x, members agreed on %#x", msg.Plan, s.planSum))
		return
	}
	slots := s.rejoinableSlots()
	if len(slots) == 0 {
		s.reject(conn, CodeFenced, "no slot awaits a rejoin")
		return
	}
	m := slots[0]
	m.conn.Close()
	m.conn, m.cc = conn, &ctrlConn{conn: conn}
	m.phase = phJoined
	m.suspect = false
	s.event(m.slot, "rejoined", m.epoch, "")
	s.wg.Add(1)
	go s.reader(m.slot, conn)
}

// applyDegrade removes the still-dead slots for good: their ranks join the
// cumulative down list the next prepare carries, and every surviving process
// will Degrade onto the remaining devices.
func (s *supervisor) applyDegrade(deadSlots []*member) {
	for _, m := range deadSlots {
		m.phase = phRemoved
		s.down = append(s.down, m.ranks...)
		s.event(m.slot, "degraded", m.epoch, fmt.Sprintf("ranks %v reassigned to survivors", m.ranks))
	}
	sort.Ints(s.down)
	s.degraded = true
}

// handleMemberMsg applies one generation-fenced member message.
func (s *supervisor) handleMemberMsg(m *member, msg ctrlMsg) {
	if msg.Gen != s.gen {
		s.event(m.slot, "fenced", msg.Epoch, fmt.Sprintf("%s from generation %d ignored in generation %d", msg.T, msg.Gen, s.gen))
		return
	}
	if s.leases != nil {
		s.leases.renew(m.slot)
	}
	if m.suspect {
		m.suspect = false
		s.event(m.slot, "live", m.epoch, "lease renewed after suspicion")
	}
	switch msg.T {
	case mtReady:
		if m.phase != phPreparing {
			return
		}
		if !s.havePlan {
			s.planSum, s.havePlan = msg.Plan, true
		} else if msg.Plan != s.planSum {
			s.failure = fmt.Errorf("worker: member %d compiled plan %#x, members agreed on %#x", m.slot, msg.Plan, s.planSum)
			return
		}
		m.addr, m.ckpts = msg.Addr, msg.Ckpts
	case mtBeat:
		if !msg.Progress {
			return
		}
		if err := s.recordLoss(msg.Epoch-1, msg.Loss); err != nil {
			s.failure = err
			return
		}
		m.epoch = msg.Epoch
		if s.measuring && s.gen > s.detectGen {
			s.measuring = false
			s.event(m.slot, "recovered", m.epoch, fmt.Sprintf("detection to resumed progress: %v", s.clock.Now().Sub(s.detectAt)))
		}
	case mtFault:
		if s.leases != nil {
			s.leases.drop(m.slot) // at the barrier a member is quiet by design
		}
		m.phase = phWaiting
		s.event(m.slot, "barrier", msg.Epoch, fmt.Sprintf("fault at epoch %d, blames %v", msg.Epoch, msg.Blame))
	case mtLeave:
		s.noteDeparture(m, phLeft, "left", fmt.Sprintf("drained after epoch %d", msg.Epoch))
	case mtResult:
		if s.leases != nil {
			s.leases.drop(m.slot)
		}
		if msg.Err != "" {
			s.failure = fmt.Errorf("worker: member %d failed: %s", m.slot, msg.Err)
			return
		}
		m.phase = phDone
		m.sum, m.sumOK = msg.Sum, true
		m.epoch = msg.Epoch
		s.event(m.slot, "done", msg.Epoch, "")
	}
}

// recordLoss cross-checks one epoch's loss across members and generations:
// two members of the same generation must agree bit for bit (rank-ordered
// float64 sums are deterministic); a later generation overwrites — a rerun
// after rollback, or legitimately different math after a degrade.
func (s *supervisor) recordLoss(epoch int, loss float64) error {
	if epoch < 0 || epoch >= s.spec.Epochs {
		return fmt.Errorf("worker: progress for epoch %d outside [0,%d)", epoch, s.spec.Epochs)
	}
	rec, ok := s.lossAt[epoch]
	if ok && rec.gen == s.gen && rec.loss != loss {
		return fmt.Errorf("worker: epoch %d loss diverged within generation %d: %v vs %v", epoch, s.gen, rec.loss, loss)
	}
	if !ok || s.gen >= rec.gen {
		s.lossAt[epoch] = lossRec{gen: s.gen, loss: loss}
	}
	return nil
}

// finish verifies the members converged and assembles the run report: model
// digests from the final generation's results, per-epoch losses from the
// authoritative progress-beat record.
func (s *supervisor) finish() (*Report, error) {
	active := s.activeMembers()
	var sum uint64
	have := false
	for _, m := range active {
		if !m.sumOK {
			continue
		}
		if !have {
			sum, have = m.sum, true
			continue
		}
		if m.sum != sum {
			return nil, fmt.Errorf("worker: final model digests diverged: %#x vs %#x (member %d)", sum, m.sum, m.slot)
		}
	}
	if !have {
		return nil, errors.New("worker: run finished with no result")
	}
	losses := make([]float64, s.spec.Epochs)
	for e := range losses {
		rec, ok := s.lossAt[e]
		if !ok {
			return nil, fmt.Errorf("worker: epoch %d loss was never reported", e)
		}
		losses[e] = rec.loss
	}
	bye := ctrlMsg{T: mtBye, Gen: s.gen, OK: true, Losses: losses, Sum: sum}
	for _, m := range active {
		// Best effort: a worker that already died cannot read its bye.
		_ = m.cc.send(bye) //dgclvet:ignore errwrap shutdown ack is best-effort; the run already has its verified report
	}
	return &Report{Losses: losses, ModelSum: sum}, nil
}
