package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RecordSchema identifies the on-disk job-record wire format.
const RecordSchema = "dsre-sweep-record/v2"

// Record is one cached job result: the spec that produced it, the stamps
// that scope its validity, and the dsre-report/v1 payload.  PayloadSHA256
// is the hex SHA-256 of the report's canonical JSON, sealed at Put time and
// re-verified on every Get, so a flipped bit on disk (or a corrupted object
// served by a remote store) reads as a miss instead of a wrong result.
type Record struct {
	Schema        string            `json:"schema"`
	Hash          string            `json:"hash"`
	SimVersion    string            `json:"sim_version"`
	PayloadSHA256 string            `json:"payload_sha256,omitempty"`
	Spec          JobSpec           `json:"spec"`
	Report        *telemetry.Report `json:"report"`
}

// payloadSHA256 computes the integrity hash over the report's canonical
// JSON encoding (struct field order is fixed and map keys sort, so the
// encoding is deterministic).
func payloadSHA256(rep *telemetry.Report) (string, error) {
	data, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Seal stamps the record's schema, simulator version and payload integrity
// hash.  Put calls it; remote writers (serve.RemoteStore) call it before
// shipping so the receiving store can verify without trust.
func (rec *Record) Seal() error {
	rec.Schema = RecordSchema
	rec.SimVersion = sim.Version
	sum, err := payloadSHA256(rec.Report)
	if err != nil {
		return fmt.Errorf("sweep: seal %s: %w", rec.Hash, err)
	}
	rec.PayloadSHA256 = sum
	return nil
}

// VerifyPayload recomputes the payload hash and reports whether it matches
// the sealed stamp.  An unsealed record (no stamp) never verifies: integrity
// is opt-out only by recomputing the result.
func (rec *Record) VerifyPayload() error {
	if rec.PayloadSHA256 == "" {
		return fmt.Errorf("sweep: record %s has no payload hash", rec.Hash)
	}
	sum, err := payloadSHA256(rec.Report)
	if err != nil {
		return err
	}
	if sum != rec.PayloadSHA256 {
		return fmt.Errorf("sweep: record %s payload hash %s, sealed %s", rec.Hash, sum, rec.PayloadSHA256)
	}
	return nil
}

// Store is a content-addressed result cache: records are keyed by their
// spec hash, writes are first-write-wins (an object once written never
// changes), and every read path treats a missing, stale-versioned or
// corrupt record as a miss (nil, nil) — never an error — because the engine
// can always recompute a content-addressed key.  DirStore is the local
// on-disk implementation; serve.RemoteStore speaks the same contract to a
// dsre-serve daemon over HTTP.
type Store interface {
	// Get loads the record for a hash; (nil, nil) is a miss.
	Get(hash string) (*Record, error)
	// Put stores a record under its hash; an existing object wins.
	Put(rec *Record) error
}

// DirStore is the local-directory Store: each record lives at
// <dir>/objects/<hash[:2]>/<hash>.json.  Writes are atomic (temp file +
// rename) and first-write-wins, so concurrent sweeps — or a daemon and
// the sweeps beside it — sharing a cache directory are safe and cached
// payloads are byte-stable.
type DirStore struct {
	dir string

	// onCorrupt, when set, observes every record rejected by payload
	// verification (the structured store_corrupt event).  Verification
	// failures are still just misses; the hook is observability, not
	// control flow.
	onCorrupt func(hash, detail string)
}

// OpenStore opens (creating if needed) a cache rooted at dir.
func OpenStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *DirStore) Dir() string { return st.dir }

// SetOnCorrupt installs the corruption observer (engine.New wires it to the
// sweep observer's store_corrupt event when observability is on).  Not safe
// to call concurrently with Get; install before use.
func (st *DirStore) SetOnCorrupt(fn func(hash, detail string)) { st.onCorrupt = fn }

func (st *DirStore) objectPath(hash string) string {
	return filepath.Join(st.dir, "objects", hash[:2], hash+".json")
}

// Get loads the record for a hash.  A missing, unreadable, corrupt or
// stale-versioned record is a cache miss (nil, nil), never an error: the
// engine recomputes and overwrites, which is always safe for a
// content-addressed key.  A record whose payload fails SHA-256
// verification additionally reports through the OnCorrupt hook.
func (st *DirStore) Get(hash string) (*Record, error) {
	if len(hash) < 2 {
		return nil, fmt.Errorf("sweep: malformed hash %q", hash)
	}
	data, err := os.ReadFile(st.objectPath(hash))
	if err != nil {
		return nil, nil
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, nil
	}
	if rec.Schema != RecordSchema || rec.Hash != hash || rec.SimVersion != sim.Version || rec.Report == nil {
		return nil, nil
	}
	if err := rec.VerifyPayload(); err != nil {
		if st.onCorrupt != nil {
			st.onCorrupt(hash, err.Error())
		}
		return nil, nil
	}
	return &rec, nil
}

// Put stores a record under its hash.  An existing object is left
// untouched (its bytes are already the content the hash names), so a
// record once written never changes on disk.
func (st *DirStore) Put(rec *Record) error {
	if len(rec.Hash) < 2 {
		return fmt.Errorf("sweep: malformed hash %q", rec.Hash)
	}
	if err := rec.Seal(); err != nil {
		return err
	}
	path := st.objectPath(rec.Hash)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sweep: put %s: %w", rec.Hash, err)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: marshal %s: %w", rec.Hash, err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+rec.Hash+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: put %s: %w", rec.Hash, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: put %s: %w", rec.Hash, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: put %s: %w", rec.Hash, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: put %s: %w", rec.Hash, err)
	}
	return nil
}

// Len counts the objects in the store (for tests and the CLI's summary).
func (st *DirStore) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(filepath.Join(st.dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
