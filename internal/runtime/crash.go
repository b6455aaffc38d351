package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Fail-stop crash injection. Message-level faults (fault.go) model lossy
// links that retries can hide; this layer models the failure mode that
// dominates long multi-machine GNN jobs: a whole device dying mid-epoch and
// never coming back. A CrashConfig is a seeded-free, fully deterministic
// schedule ("device d dies at epoch E, stage S"); the CrashTracker turns it
// into a monotone per-device down set, and each client's stage loop
// (Cluster.runClient) fails every send or receive touching a crashed device
// fast with a DeviceDownError, above the retry decorator, so no retry budget
// is spent on it. Callers distinguish
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
// any (from explicit evidence or from deadline strikes), otherwise every
// distinct DeviceDownError among the per-GPU errors. Otherwise an error
// blames nobody — a lossy link or a lone deadline is not a death — and an
// empty result means nothing to degrade.
func DownDevices(err error) []int {
	var ce *CollectiveError
	if errors.As(err, &ce) && len(ce.Down) > 0 {
		return append([]int(nil), ce.Down...)
	}
	if !errors.Is(err, ErrDeviceDown) {
		return nil
	}
	if ce == nil {
		var dd *DeviceDownError
		if errors.As(err, &dd) {
			return []int{dd.Device}
		}
		return nil
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
// scheduled events as each client's stage loop reaches their stage, and
// exposes the monotone down set. One tracker outlives cluster rebuilds, so
// devices that died before a degraded replan stay dead in the rebuilt world.
// All methods are safe for concurrent use by the client goroutines of a
// collective; the two the stage loop calls per transfer or stage (Down and
// advance) take no lock unless an event of the current epoch is pending.
type CrashTracker struct {
	mu      sync.Mutex
	pending []CrashEvent
	epoch   int
	// armed is set while a pending event belongs to the current epoch.
	armed atomic.Bool
	// down is the ascending down set. Writers replace it under mu and never
	// mutate a published slice, so readers load it without the lock.
	down atomic.Pointer[[]int]
}

// NewCrashTracker builds a tracker for the schedule. A nil-safe empty
// config yields a tracker that never fires (but MarkDown still works, so the
// health tracker can feed verdicts into it).
func NewCrashTracker(cfg CrashConfig) *CrashTracker {
	return &CrashTracker{pending: slices.Clone(cfg.Events), epoch: -1}
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
// been reached. A client's stage loop calls it once per stage in which the
// client has a transfer, before that stage's first send or receive, so the
// down decision is a pure function of (epoch, stage) rather than of
// goroutine scheduling.
func (t *CrashTracker) advance(stage int) {
	if !t.armed.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fireLocked(func(e CrashEvent) bool { return e.Epoch == t.epoch && e.Stage <= stage })
}

// fireLocked marks down every pending event matching the predicate and
// re-arms advance for what is left of the current epoch. Caller holds t.mu.
func (t *CrashTracker) fireLocked(match func(CrashEvent) bool) {
	armed := false
	kept := t.pending[:0]
	for _, e := range t.pending {
		if match(e) {
			t.markDownLocked(e.Device)
		} else {
			kept = append(kept, e)
			armed = armed || e.Epoch == t.epoch
		}
	}
	t.pending = kept
	t.armed.Store(armed)
}

func (t *CrashTracker) markDownLocked(dev int) {
	var down []int
	if p := t.down.Load(); p != nil {
		down = *p
	}
	i, found := slices.BinarySearch(down, dev)
	if found {
		return
	}
	down = slices.Insert(slices.Clip(down), i, dev)
	t.down.Store(&down)
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
	p := t.down.Load()
	return p != nil && slices.Contains(*p, dev)
}

// DownDevices returns every failed device, ascending.
func (t *CrashTracker) DownDevices() []int {
	out := []int{}
	if p := t.down.Load(); p != nil {
		out = append(out, *p...)
	}
	return out
}

// downEndpoint returns a *DeviceDownError naming the first of src, dst
// (external ids) that is down, or nil when both are alive.
func (t *CrashTracker) downEndpoint(src, dst int) error {
	if t.Down(src) {
		return &DeviceDownError{Device: src}
	}
	if t.Down(dst) {
		return &DeviceDownError{Device: dst}
	}
	return nil
}
