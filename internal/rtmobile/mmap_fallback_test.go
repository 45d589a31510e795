//go:build purego || (!linux && !darwin)

package rtmobile

const mmapBuilt = false
