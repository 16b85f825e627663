package libindex

// The frozen benchmark (bench/) still names what follows: forwards to
// Open. ROADMAP item 1 deletes this file.

// Kind reports whether a path holds a manifest.
type Kind bool

// KindManifest is a manifest log.
const KindManifest Kind = true

// DetectKind is isManifest.
func DetectKind(path string) (Kind, error) {
	manifest, err := isManifest(path)
	return Kind(manifest), err
}

// ManifestIndex is an Index with its partition handles exposed.
type ManifestIndex struct {
	*Index
	Parts []*partition
}

// OpenManifest is Open.
func OpenManifest(path string) (*ManifestIndex, error) {
	ix, err := Open(path)
	if err != nil {
		return nil, err
	}
	return &ManifestIndex{Index: ix, Parts: ix.parts}, nil
}

// OpenFile opens a bare index file as its one partition.
func OpenFile(path string) (*partition, error) { return openPartition(path) }
