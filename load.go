package repro

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/durable"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

// loadNTriples parses N-Triples from r into a store. Every dataset read
// from a file or reader (LoadNTriples, OpenDataset and a durable first
// boot's seed) comes through here.
func loadNTriples(r io.Reader) (*store.Store, error) {
	b := store.NewBuilder()
	rd := rdf.NewReader(bufio.NewReaderSize(r, 1<<16))
	for {
		t, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		b.Add(t)
	}
	return b.Build(), nil
}

// DatasetOption customizes OpenDataset.
type DatasetOption func(*datasetOptions)

type datasetOptions struct {
	shards   int
	dataDir  string
	fsync    string
	lubmUniv int
}

// WithShards partitions the loaded dataset into n subject-hash shards (see
// Dataset.Partition). n <= 1 is a no-op.
func WithShards(n int) DatasetOption {
	return func(o *datasetOptions) { o.shards = n }
}

// WithDataDir makes the dataset durable, bound to the data directory at
// dir (see internal/durable): when the directory already holds a base
// segment, it is mmap'd and the write-ahead log's surviving patches are
// replayed over it — the input file is then ignored entirely (the segment
// is the newer truth, and loading it skips parsing, dictionary encoding,
// and index building). Only on first boot does the input seed the
// directory; OpenDataset then accepts an empty path, meaning start empty.
// All later Insert/Delete/ApplyPatch calls are logged before they publish,
// and every Compact persists a fresh segment; call Dataset.Close on
// shutdown to seal the log.
func WithDataDir(dir string) DatasetOption {
	return func(o *datasetOptions) { o.dataDir = dir }
}

// WithFsync sets the durable write-ahead log's sync policy: "always"
// (default — every applied patch is on disk before the call returns),
// "off" (the OS decides), or a Go duration like "50ms" (group commit at
// that interval). Only meaningful together with WithDataDir.
func WithFsync(policy string) DatasetOption {
	return func(o *datasetOptions) { o.fsync = policy }
}

// WithLUBM seeds a first-boot durable data directory by generating the
// LUBM benchmark dataset at the given scale instead of reading the input
// file. Ignored once the directory is initialized. Only meaningful
// together with WithDataDir (without one, use GenerateLUBM).
func WithLUBM(universities int) DatasetOption {
	return func(o *datasetOptions) { o.lubmUniv = universities }
}

// OpenDataset parses the N-Triples file at path and applies the options.
// With WithDataDir the dataset is durable and path is only the first boot's
// seed — see WithDataDir.
func OpenDataset(path string, opts ...DatasetOption) (*Dataset, error) {
	var o datasetOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.dataDir != "" {
		return openDurable(path, o)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := LoadNTriples(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if o.shards > 1 {
		if err := ds.Partition(o.shards); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return ds, nil
}

// openDurable opens (or initializes) the durable data directory. The
// bootstrap closure runs only when the directory holds no segment yet.
func openDurable(path string, o datasetOptions) (*Dataset, error) {
	pol, err := wal.ParsePolicy(o.fsync)
	if err != nil {
		return nil, err
	}
	bootstrap := func() (*store.Store, error) {
		switch {
		case o.lubmUniv > 0:
			b := store.NewBuilder()
			lubm.GenerateTo(lubm.Config{Universities: o.lubmUniv}, b.Add)
			return b.Build(), nil
		case path != "":
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			st, err := loadNTriples(f)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return st, nil
		default:
			return store.FromTriples(nil), nil
		}
	}
	d, err := durable.Open(o.dataDir, bootstrap, durable.Options{Fsync: pol, Shards: o.shards})
	if err != nil {
		return nil, err
	}
	return &Dataset{ls: d.Live(), dur: d}, nil
}
