package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RecordSchema identifies the on-disk job-record wire format.
const RecordSchema = "dsre-sweep-record/v3"

// Record is one cached job result: the spec that produced it, the stamps
// that scope its validity, and the dsre-report/v1 payload.  PayloadSHA256
// is the hex SHA-256 of the report's canonical JSON, sealed at Put time and
// re-verified on every Get, so a flipped bit on disk reads as a miss
// instead of a wrong result.
type Record struct {
	Schema        string            `json:"schema"`
	Hash          string            `json:"hash"`
	SimVersion    string            `json:"sim_version"`
	PayloadSHA256 string            `json:"payload_sha256,omitempty"`
	Spec          JobSpec           `json:"spec"`
	Report        *telemetry.Report `json:"report"`
}

// recordHeader is line 1 of a DirStore object: the record without its
// report, which follows on line 2 as exactly the bytes seal hashed.
type recordHeader struct {
	Schema        string  `json:"schema"`
	Hash          string  `json:"hash"`
	SimVersion    string  `json:"sim_version"`
	PayloadSHA256 string  `json:"payload_sha256"`
	Spec          JobSpec `json:"spec"`
}

// payloadDigest is the integrity hash of a report's canonical JSON encoding
// (json.Marshal: struct field order is fixed and map keys sort, so the
// encoding is deterministic).
func payloadDigest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// seal stamps the record's schema, simulator version and payload integrity
// hash, and returns the payload bytes it hashed: the report's canonical
// encoding, which Put stores as is.
func (rec *Record) seal() ([]byte, error) {
	rec.Schema = RecordSchema
	rec.SimVersion = sim.Version
	payload, err := json.Marshal(rec.Report)
	if err != nil {
		return nil, fmt.Errorf("sweep: seal %s: %w", rec.Hash, err)
	}
	rec.PayloadSHA256 = payloadDigest(payload)
	return payload, nil
}

// validHash reports whether h has the only form JobSpec.Hash produces: 64
// lowercase hex digits.  The store addresses objects by it, so anything else
// (a path separator, "..") is rejected before it reaches a file name.
func validHash(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// DirStore is the content-addressed result cache: records are keyed by
// their spec hash, and each lives at <dir>/objects/<hash[:2]>/<hash>.json
// as a compact header line followed by the report's canonical encoding on
// a line of its own.  Writes are atomic (temp file + rename) and
// first-write-wins over valid objects, so concurrent sweeps sharing a
// cache directory are safe and cached payloads are byte-stable.  Every
// read treats a missing, stale-versioned or corrupt record as a miss (nil,
// nil), never an error, because the engine can always recompute a
// content-addressed key.
type DirStore struct {
	dir     string
	objects string // <dir>/objects/, the prefix of every object path

	// onCorrupt, when set, observes every record rejected by payload
	// verification or decoding (the structured store_corrupt event).
	// Rejections are still just misses; the hook is observability, not
	// control flow.
	onCorrupt func(hash, detail string)
}

// OpenStore opens (creating if needed) a cache rooted at dir.
func OpenStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty store directory")
	}
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	return &DirStore{dir: dir, objects: objects + string(filepath.Separator)}, nil
}

// Dir returns the store's root directory.
func (st *DirStore) Dir() string { return st.dir }

// SetOnCorrupt installs the corruption observer (engine.New wires it to the
// sweep observer's store_corrupt event when observability is on).  Not safe
// to call concurrently with Get; install before use.
func (st *DirStore) SetOnCorrupt(fn func(hash, detail string)) { st.onCorrupt = fn }

func (st *DirStore) objectPath(hash string) string {
	return st.objects + hash[:2] + string(filepath.Separator) + hash + ".json"
}

// readBufs holds the buffers objects are read into.  Nothing decoded from
// an object aliases its buffer (the decoder copies every string out), so a
// buffer goes back to the pool as soon as read returns.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 8<<10)
	return &b
}}

// maxPooledRead bounds the buffers readBufs keeps: a rare large object (a
// long sample series) is read into a buffer the GC takes back.
const maxPooledRead = 64 << 10

// readObject reads the file at path into buf[:0] with three system calls
// for an object that fits the buffer: open, read and close (os.ReadFile
// adds two fcntl calls around a failing poller registration, an fstat and a
// second read to reach EOF).  A short read ending in a newline, the last
// byte of every object, ends the file; any other short read reads again,
// until a zero-byte read.  Were that newline not the file's end, the object
// would fail its digest and read as a miss, never as a wrong result.
func readObject(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return buf, err
	}
	defer syscall.Close(fd)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		free := buf[len(buf):cap(buf)]
		n, err := syscall.Read(fd, free)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+n]
		if n == 0 || (n < len(free) && buf[len(buf)-1] == '\n') {
			return buf, nil
		}
	}
}

// read loads and verifies the object for a hash.  A missing object and a
// header that does not decode or names another schema, hash or simulator
// version are a plain miss (nil, ""): nothing in them lies, they are just
// not what this build addresses.  A payload whose bytes do not match the
// header's digest, or that matches it but does not decode, is a miss that
// returns the detail.  The digest is taken over the stored bytes in place,
// so verifying needs no re-encoding.
func (st *DirStore) read(hash string) (*Record, string) {
	bp := readBufs.Get().(*[]byte)
	data, err := readObject(st.objectPath(hash), *bp)
	if cap(data) <= maxPooledRead {
		*bp = data
		defer readBufs.Put(bp)
	}
	if err != nil {
		return nil, ""
	}
	line, payload, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, ""
	}
	var hdr recordHeader
	if err := headerCodec.decode(line, &hdr); err != nil {
		return nil, ""
	}
	if hdr.Schema != RecordSchema || hdr.Hash != hash || hdr.SimVersion != sim.Version {
		return nil, ""
	}
	payload = bytes.TrimSuffix(payload, []byte{'\n'})
	if sum := payloadDigest(payload); sum != hdr.PayloadSHA256 {
		return nil, fmt.Sprintf("sweep: record %s payload hash %s, sealed %s", hash, sum, hdr.PayloadSHA256)
	}
	var rep telemetry.Report
	if err := reportCodec.decode(payload, &rep); err != nil {
		return nil, fmt.Sprintf("sweep: record %s payload matches its digest but does not decode: %v", hash, err)
	}
	return &Record{
		Schema:        hdr.Schema,
		Hash:          hdr.Hash,
		SimVersion:    hdr.SimVersion,
		PayloadSHA256: hdr.PayloadSHA256,
		Spec:          hdr.Spec,
		Report:        &rep,
	}, ""
}

// Get loads the record for a hash.  A missing, unreadable, corrupt,
// stale-versioned or old-layout record is a cache miss (nil, nil), never an
// error: the engine recomputes and Put replaces the object, which is always
// safe for a content-addressed key.  A record whose payload fails SHA-256
// verification, or passes it but does not decode, additionally reports
// through the OnCorrupt hook.
func (st *DirStore) Get(hash string) (*Record, error) {
	if !validHash(hash) {
		return nil, fmt.Errorf("sweep: malformed hash %q", hash)
	}
	rec, corrupt := st.read(hash)
	if corrupt != "" && st.onCorrupt != nil {
		st.onCorrupt(hash, corrupt)
	}
	return rec, nil
}

// Put stores a record under its hash as two lines: a compact header, then
// the report's canonical encoding, the bytes the seal hashed.  An existing
// object that reads and verifies is left untouched (its bytes are already
// the content the hash names), so a valid record once written never
// changes on disk; one that does not (corrupt, truncated, stale or in an
// older layout) is replaced.
func (st *DirStore) Put(rec *Record) error {
	if !validHash(rec.Hash) {
		return fmt.Errorf("sweep: malformed hash %q", rec.Hash)
	}
	if rec.Report == nil {
		return fmt.Errorf("sweep: put %s: no report", rec.Hash)
	}
	path := st.objectPath(rec.Hash)
	if old, _ := st.read(rec.Hash); old != nil {
		return nil
	}
	payload, err := rec.seal()
	if err != nil {
		return err
	}
	hdr, err := json.Marshal(recordHeader{
		Schema:        rec.Schema,
		Hash:          rec.Hash,
		SimVersion:    rec.SimVersion,
		PayloadSHA256: rec.PayloadSHA256,
		Spec:          rec.Spec,
	})
	if err != nil {
		return fmt.Errorf("sweep: marshal %s: %w", rec.Hash, err)
	}
	data := append(append(hdr, '\n'), payload...)
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sweep: put %s: %w", rec.Hash, err)
	}
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
