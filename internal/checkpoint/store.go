package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoCheckpoint reports that the store holds no intact checkpoint (empty
// directory, or every generation failed verification).
var ErrNoCheckpoint = errors.New("no intact checkpoint")

// DefaultKeep is how many generations a store retains when Keep is unset.
const DefaultKeep = 3

const (
	manifestSuffix = ".json"
	payloadSuffix  = ".ckpt"
	genPrefix      = "gen-"
)

// Store manages generation-numbered checkpoints in one directory.
type Store struct {
	// Dir is the checkpoint directory (created on first Save).
	Dir string
	// Keep bounds retained generations (<=0 means DefaultKeep). Pruning
	// happens after each successful Save and never removes the generation
	// just written.
	Keep int
}

// NewStore builds a store over dir.
func NewStore(dir string) *Store { return &Store{Dir: dir, Keep: DefaultKeep} }

func (s *Store) keep() int {
	if s.Keep <= 0 {
		return DefaultKeep
	}
	return s.Keep
}

func genName(gen int) string { return fmt.Sprintf("%s%08d", genPrefix, gen) }

// generations lists the generation numbers that have a manifest file,
// ascending. Malformed filenames are ignored.
func (s *Store) generations() ([]int, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: list %s: %w", s.Dir, err)
	}
	var gens []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, genPrefix) || !strings.HasSuffix(name, manifestSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, genPrefix), manifestSuffix)
		gen, err := strconv.Atoi(num)
		if err != nil || gen < 0 {
			continue
		}
		gens = append(gens, gen)
	}
	sort.Ints(gens)
	return gens, nil
}

// Save commits the snapshot as a new generation: payload first (temp +
// fsync + rename), then the manifest the same way — the manifest rename is
// the commit point. After a successful commit, generations beyond Keep are
// pruned oldest-first. It returns the committed generation number.
func (s *Store) Save(snap *Snapshot) (int, error) {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return 0, fmt.Errorf("checkpoint: create %s: %w", s.Dir, err)
	}
	gens, err := s.generations()
	if err != nil {
		return 0, err
	}
	gen := 0
	if len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}
	var payload bytes.Buffer
	if err := snap.Encode(&payload); err != nil {
		return 0, err
	}
	sum := sha256.Sum256(payload.Bytes())
	payloadName := genName(gen) + payloadSuffix
	if err := s.writeAtomic(payloadName, payload.Bytes()); err != nil {
		return 0, err
	}
	man := &Manifest{
		Generation: gen,
		Epoch:      snap.Epoch,
		Payload:    payloadName,
		SHA256:     hex.EncodeToString(sum[:]),
		Size:       int64(payload.Len()),
	}
	manData, err := man.encode()
	if err != nil {
		return 0, err
	}
	if err := s.writeAtomic(genName(gen)+manifestSuffix, manData); err != nil {
		return 0, err
	}
	s.prune(append(gens, gen))
	return gen, nil
}

// writeAtomic writes name under Dir via a temp file, fsync, and rename, so a
// crash mid-write leaves either the old file or the new one — never a
// partial file under the final name.
func (s *Store) writeAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.Dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp for %s: %w", name, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: sync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close %s: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.Dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: commit %s: %w", name, err)
	}
	return nil
}

// prune removes generations beyond the retention bound, oldest first.
// Removal errors are ignored: a leftover old generation costs disk, not
// correctness.
func (s *Store) prune(gens []int) {
	sort.Ints(gens)
	if len(gens) <= s.keep() {
		return
	}
	for _, gen := range gens[:len(gens)-s.keep()] {
		os.Remove(filepath.Join(s.Dir, genName(gen)+payloadSuffix))
		os.Remove(filepath.Join(s.Dir, genName(gen)+manifestSuffix))
	}
}

// Load returns the newest intact snapshot: generations are tried newest
// first, and one whose manifest is corrupt, whose payload is missing, whose
// checksum mismatches, or whose snapshot fails to decode is skipped in favor
// of the next older. ErrNoCheckpoint means nothing intact remains.
func (s *Store) Load() (*Snapshot, int, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, 0, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		snap, err := s.loadGeneration(gens[i])
		if err != nil {
			// Corrupt generation: fall back to the next older one.
			continue
		}
		return snap, gens[i], nil
	}
	return nil, 0, fmt.Errorf("checkpoint: %s: %w", s.Dir, ErrNoCheckpoint)
}

// loadGeneration verifies and decodes one generation.
func (s *Store) loadGeneration(gen int) (*Snapshot, error) {
	manData, err := os.ReadFile(filepath.Join(s.Dir, genName(gen)+manifestSuffix))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read manifest %d: %w", gen, err)
	}
	man, err := DecodeManifest(manData)
	if err != nil {
		return nil, err
	}
	payload, err := os.ReadFile(filepath.Join(s.Dir, man.Payload))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read payload %d: %w", gen, err)
	}
	if int64(len(payload)) != man.Size {
		return nil, fmt.Errorf("checkpoint: generation %d payload is %d bytes, manifest says %d",
			gen, len(payload), man.Size)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != man.SHA256 {
		return nil, fmt.Errorf("checkpoint: generation %d checksum mismatch", gen)
	}
	snap, err := DecodeSnapshot(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Epochs returns the epoch of every intact snapshot in the store, ascending
// and deduplicated (a rollback-and-rerun can commit the same epoch under two
// generations). Corrupt generations are skipped, so the result is exactly the
// set of epochs LoadEpoch can serve — what a rejoining worker advertises to
// the coordinator when negotiating the common resume epoch. An empty store is
// an empty list, not an error.
func (s *Store) Epochs() ([]int, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool)
	var epochs []int
	for _, gen := range gens {
		snap, err := s.loadGeneration(gen)
		if err != nil {
			// Corrupt generation: not restorable, not advertised.
			continue
		}
		if !seen[snap.Epoch] {
			seen[snap.Epoch] = true
			epochs = append(epochs, snap.Epoch)
		}
	}
	sort.Ints(epochs)
	return epochs, nil
}

// LoadEpoch returns the newest intact snapshot taken at exactly the given
// epoch — the catch-up path of a worker rejoining at an agreed epoch barrier,
// where "newest or nothing" (Load) is wrong: every member must restore the
// same epoch or the replicas diverge. Corrupt generations fall back to older
// ones with the same epoch; ErrNoCheckpoint means no intact snapshot at that
// epoch exists.
func (s *Store) LoadEpoch(epoch int) (*Snapshot, int, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, 0, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		snap, err := s.loadGeneration(gens[i])
		if err != nil || snap.Epoch != epoch {
			continue
		}
		return snap, gens[i], nil
	}
	return nil, 0, fmt.Errorf("checkpoint: %s has no intact snapshot at epoch %d: %w", s.Dir, epoch, ErrNoCheckpoint)
}
