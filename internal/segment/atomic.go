package segment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// atomicWriteFile writes a file via write-to-temp, fsync, rename and a
// parent-directory fsync. write receives the temporary file; on any error
// the temporary is removed and path is untouched.
func atomicWriteFile(path string, write func(*os.File) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename itself is only durable once the directory entry is
	// fsynced; without it a power loss can roll path back to the old file
	// (or to nothing) even though the data blocks survived.
	return syncDir(dir)
}

// syncDir fsyncs a directory so preceding renames and creates in it survive
// power loss. Filesystems that do not support fsync on directories
// (returning EINVAL/ENOTSUP) are treated as success — there is nothing more
// the caller can do there — but real I/O errors are reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("segment: fsync %s: %w", dir, err)
	}
	return nil
}
