package store

// Test-only exports for the external store_test package.

import "fmt"

// DiskFrameSize is the on-disk frame size (page + checksum trailer),
// exported so the crash harness can address individual frames in a raw
// store image.
const DiskFrameSize = diskFrameSize

// FilePager is the store's pager, driven page by page by the image-reuse
// model test.
type FilePager = filePager

// OpenPager opens a pager alone, without a buffer pool or store above it.
func OpenPager(fsys FS, path string, opts Options) (*FilePager, error) {
	return openFilePager(fsys, path, opts)
}

func (p *filePager) BeginTxn() error    { return p.beginTxn() }
func (p *filePager) CommitTxn() error   { return p.commitTxn() }
func (p *filePager) RollbackTxn() error { return p.rollbackTxn() }

// Checkpoint runs a checkpoint now, as a commit past the log limit would;
// an active backup defers it.
func (p *filePager) Checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.checkpoint()
}

// BeginBackup freezes the page file as an online backup does, until
// AbortBackup.
func (p *filePager) BeginBackup() error {
	_, _, err := p.beginBackup()
	return err
}

func (p *filePager) AbortBackup() { p.abortBackup() }

// CheckImages reports a page image held twice across pending, tail and
// spare, or more spare images than the bound.
func (p *filePager) CheckImages() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[*byte]string{}
	note := func(img []byte, where string) error {
		if len(img) != PageSize {
			return fmt.Errorf("%s: image of %d bytes", where, len(img))
		}
		if prev, ok := seen[&img[0]]; ok {
			return fmt.Errorf("one image is both %s and %s", prev, where)
		}
		seen[&img[0]] = where
		return nil
	}
	for id, img := range p.pending {
		if err := note(img, fmt.Sprintf("pending[%d]", id)); err != nil {
			return err
		}
	}
	for id, img := range p.tail {
		if err := note(img, fmt.Sprintf("tail[%d]", id)); err != nil {
			return err
		}
	}
	for i, img := range p.spare {
		if err := note(img, fmt.Sprintf("spare[%d]", i)); err != nil {
			return err
		}
	}
	if limit := p.checkpointBytes / PageSize; int64(len(p.spare)) > limit {
		return fmt.Errorf("%d spare images, bound %d", len(p.spare), limit)
	}
	return nil
}
