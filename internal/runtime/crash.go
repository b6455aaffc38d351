package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dgcl/internal/core"
)

// Fail-stop crash injection. Message-level faults (fault.go) model lossy
// links that retries can hide; this layer models the failure mode that
// dominates long multi-machine GNN jobs: a whole device dying mid-epoch and
// never coming back. A CrashConfig is a seeded-free, fully deterministic
// schedule ("device d dies at epoch E, stage S"); the CrashTracker turns it
// into a monotone per-device down set, and the crash transport wrapper makes
// every send or receive touching a crashed device fail fast with
// ErrDeviceDown — which is NOT retryable, so it cuts through the retry
// decorator and surfaces to the client immediately. Callers distinguish
// "lossy link, retry" (TransportError wrapping ErrDropped & co.) from "peer
// is gone, recover" (DeviceDownError) and react by replanning over the
// survivors (see dgcl.System.Degrade).

// ErrDeviceDown reports that a transfer endpoint has failed fail-stop. It is
// permanent: no retry budget can bring the device back.
var ErrDeviceDown = errors.New("device down")

// DeviceDownError identifies which device a transfer found dead. It unwraps
// to ErrDeviceDown so errors.Is(err, ErrDeviceDown) matches anywhere in a
// CollectiveError chain.
type DeviceDownError struct {
	// Device is the external device id (original GPU numbering, stable
	// across degraded replans — see Cluster.DeviceIDs).
	Device int
}

func (e *DeviceDownError) Error() string {
	return fmt.Sprintf("device %d is down", e.Device)
}

func (e *DeviceDownError) Unwrap() error { return ErrDeviceDown }

// DownDevices reads which devices a failed collective found fail-stop dead
// (external ids, ascending): the health tracker's verdicts when it reached
// any, otherwise every distinct DeviceDownError among the per-GPU errors. An
// error that does not match ErrDeviceDown blames nobody — a lossy link or a
// deadline is not a death — and an empty result means nothing to degrade.
func DownDevices(err error) []int {
	if err == nil || !errors.Is(err, ErrDeviceDown) {
		return nil
	}
	var ce *CollectiveError
	if !errors.As(err, &ce) {
		var dd *DeviceDownError
		if errors.As(err, &dd) {
			return []int{dd.Device}
		}
		return nil
	}
	if len(ce.Down) > 0 {
		return append([]int(nil), ce.Down...)
	}
	var out []int
	for _, pe := range ce.PerGPU {
		var dd *DeviceDownError
		if pe != nil && errors.As(pe, &dd) && !slices.Contains(out, dd.Device) {
			out = append(out, dd.Device)
		}
	}
	sort.Ints(out)
	return out
}

// CrashEvent schedules one fail-stop failure: Device dies the first time any
// transfer of epoch Epoch reaches plan stage Stage (0-based flattened stage
// index; stage 0 means the device is dead from the epoch's first transfer).
// Once down, a device stays down for the rest of the run.
type CrashEvent struct {
	Device int
	Epoch  int
	Stage  int
}

// CrashConfig is a deterministic fail-stop schedule.
type CrashConfig struct {
	Events []CrashEvent
}

// ParseCrashSchedule parses a comma-separated schedule of the form
// "dev@epoch" or "dev@epoch:stage" (e.g. "2@3:1,5@7"). An omitted stage
// means stage 0.
func ParseCrashSchedule(s string) (*CrashConfig, error) {
	cfg := &CrashConfig{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		devStr, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("runtime: crash event %q: want dev@epoch[:stage]", part)
		}
		epochStr, stageStr, hasStage := strings.Cut(at, ":")
		dev, err := strconv.Atoi(devStr)
		if err != nil {
			return nil, fmt.Errorf("runtime: crash event %q: bad device: %w", part, err)
		}
		epoch, err := strconv.Atoi(epochStr)
		if err != nil {
			return nil, fmt.Errorf("runtime: crash event %q: bad epoch: %w", part, err)
		}
		stage := 0
		if hasStage {
			stage, err = strconv.Atoi(stageStr)
			if err != nil {
				return nil, fmt.Errorf("runtime: crash event %q: bad stage: %w", part, err)
			}
		}
		if dev < 0 || epoch < 0 || stage < 0 {
			return nil, fmt.Errorf("runtime: crash event %q: negative field", part)
		}
		cfg.Events = append(cfg.Events, CrashEvent{Device: dev, Epoch: epoch, Stage: stage})
	}
	if len(cfg.Events) == 0 {
		return nil, fmt.Errorf("runtime: empty crash schedule %q", s)
	}
	return cfg, nil
}

// CrashTracker executes a CrashConfig: it tracks the current epoch, fires
// scheduled events as transfers reach their stage, and exposes the monotone
// down set. One tracker outlives cluster rebuilds, so devices that died
// before a degraded replan stay dead in the rebuilt world. All methods are
// safe for concurrent use by the client goroutines of a collective.
type CrashTracker struct {
	mu       sync.Mutex
	pending  []CrashEvent
	epoch    int
	down     map[int]bool
	watchers map[int]crashWatch
	nextID   int
}

// crashWatch is one receiver waiting on a transfer: if either watched device
// is marked down, cancel unblocks it.
type crashWatch struct {
	devices [2]int
	cancel  context.CancelFunc
}

// NewCrashTracker builds a tracker for the schedule. A nil-safe empty
// config yields a tracker that never fires (but MarkDown still works, so the
// health tracker can feed verdicts into it).
func NewCrashTracker(cfg CrashConfig) *CrashTracker {
	t := &CrashTracker{
		pending:  append([]CrashEvent(nil), cfg.Events...),
		epoch:    -1,
		down:     make(map[int]bool),
		watchers: make(map[int]crashWatch),
	}
	return t
}

// BeginEpoch advances the tracker's epoch clock. The trainer calls it before
// each epoch's first collective; events of earlier epochs that never fired
// (their stage was beyond the plan) fire now, keeping the schedule monotone.
func (t *CrashTracker) BeginEpoch(epoch int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = epoch
	t.fireLocked(func(e CrashEvent) bool { return e.Epoch < epoch })
}

// advance fires every pending event of the current epoch whose stage has
// been reached. Called by the crash transport on every send/receive with the
// transfer's stage, so the down decision is a pure function of (epoch,
// stage) rather than of goroutine scheduling.
func (t *CrashTracker) advance(stage int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fireLocked(func(e CrashEvent) bool { return e.Epoch == t.epoch && e.Stage <= stage })
}

// fireLocked marks down every pending event matching the predicate and wakes
// watchers of those devices. Caller holds t.mu.
func (t *CrashTracker) fireLocked(match func(CrashEvent) bool) {
	kept := t.pending[:0]
	for _, e := range t.pending {
		if match(e) {
			t.markDownLocked(e.Device)
		} else {
			kept = append(kept, e)
		}
	}
	t.pending = kept
}

func (t *CrashTracker) markDownLocked(dev int) {
	if t.down[dev] {
		return
	}
	t.down[dev] = true
	// Wake every receiver blocked on a transfer touching the dead device.
	// Cancel order does not matter: each watcher independently observes the
	// same monotone down set when it wakes.
	for _, w := range t.watchers {
		if w.devices[0] == dev || w.devices[1] == dev {
			w.cancel()
		}
	}
}

// MarkDown records an externally detected failure (e.g. a health-tracker
// verdict) as a fail-stop death.
func (t *CrashTracker) MarkDown(dev int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.markDownLocked(dev)
}

// Down reports whether the device has failed.
func (t *CrashTracker) Down(dev int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down[dev]
}

// DownDevices returns every failed device, ascending.
func (t *CrashTracker) DownDevices() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.down))
	for d := range t.down {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// watch registers a cancellation hook fired if either device goes down;
// the returned func unregisters it. Used by crash-transport receives so a
// receiver blocked on a dead sender unblocks immediately instead of running
// out its receive deadline.
func (t *CrashTracker) watch(a, b int, cancel context.CancelFunc) func() {
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	t.watchers[id] = crashWatch{devices: [2]int{a, b}, cancel: cancel}
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.watchers, id)
		t.mu.Unlock()
	}
}

// crashTransport fails every transfer touching a crashed device. It sits
// directly below the retry decorator (above fault injection, so dead links
// stop rolling message faults): ErrDeviceDown is not retryable, so the retry
// decorator passes it through to the client unmodified.
type crashTransport struct {
	inner   Transport
	tracker *CrashTracker
	ids     []int // client index -> external device id; nil = identity
}

// NewCrashTransport wraps inner with fail-stop crash injection/propagation.
// ids maps the cluster's client indices to external device ids (the original
// GPU numbering); nil means the identity mapping.
func NewCrashTransport(inner Transport, tracker *CrashTracker, ids []int) Transport {
	return &crashTransport{inner: inner, tracker: tracker, ids: ids}
}

// Unwrap exposes the decorated transport (see WrappingTransport).
func (t *crashTransport) Unwrap() Transport { return t.inner }

func (t *crashTransport) dev(i int) int {
	if t.ids == nil {
		return i
	}
	return t.ids[i]
}

// downEndpoint returns the external id of a crashed endpoint of tr, or -1.
func (t *crashTransport) downEndpoint(tr core.Transfer) int {
	if src := t.dev(tr.Src); t.tracker.Down(src) {
		return src
	}
	if dst := t.dev(tr.Dst); t.tracker.Down(dst) {
		return dst
	}
	return -1
}

func (t *crashTransport) Send(ctx context.Context, key TransferKey, tr core.Transfer, msg Message) error {
	t.tracker.advance(key.Stage)
	if dev := t.downEndpoint(tr); dev >= 0 {
		return &DeviceDownError{Device: dev}
	}
	return t.inner.Send(ctx, key, tr, msg)
}

func (t *crashTransport) Recv(ctx context.Context, key TransferKey, tr core.Transfer) (Message, error) {
	t.tracker.advance(key.Stage)
	if dev := t.downEndpoint(tr); dev >= 0 {
		return Message{}, &DeviceDownError{Device: dev}
	}
	// A dead sender never delivers: watch the endpoints so this receive
	// unblocks the moment either dies, instead of burning its full receive
	// deadline per transfer.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	unwatch := t.tracker.watch(t.dev(tr.Src), t.dev(tr.Dst), cancel)
	defer unwatch()
	msg, err := t.inner.Recv(ctx, key, tr)
	if err != nil {
		if dev := t.downEndpoint(tr); dev >= 0 {
			return Message{}, &DeviceDownError{Device: dev}
		}
	}
	return msg, err
}
