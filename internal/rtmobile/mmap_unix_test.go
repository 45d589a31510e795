//go:build (linux || darwin) && !purego

package rtmobile

// mmapBuilt mirrors mmap_unix.go's build constraint: MapBundle must take the
// mmap path on exactly these builds.
const mmapBuilt = true
