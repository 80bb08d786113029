package wal

// BodyDecodes returns how many record bodies scanners have decoded so far.
func BodyDecodes() int64 { return bodyDecodes.Load() }
