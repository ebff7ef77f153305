// Testdata for the atomicwrite analyzer: destination writes without
// the temp+rename staging pattern.
package atomicwrite

import (
	"os"
	"path/filepath"
)

func directWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `os.WriteFile writes the destination in place`
}

func directCreate(path string) (*os.File, error) {
	return os.Create(path) // want `os.Create writes the destination in place`
}

func truncatingOpen(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644) // want `os.OpenFile with os.O_TRUNC rewrites the destination in place`
}

func inPlaceWrite(path string, data []byte, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0) // a positioned write past committed bytes: no truncation
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func staged(path string, data []byte) error {
	tf, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*") // temp file: the staging half
	if err != nil {
		return err
	}
	tmp := tf.Name()
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func createWithRename(path string) error {
	f, err := os.Create(path + ".partial") // the function renames: staging by hand
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path + ".partial")
		return err
	}
	return os.Rename(path+".partial", path)
}

func waived(path string) error {
	//optlint:ignore atomicwrite demo: scratch file in a run-private temp dir, never a durable destination
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}
