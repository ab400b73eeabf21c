package farrar

// lanes64 is the lane kernel (lanes.go) in Go assembly on the 64 byte
// lanes of a ZMM register (lanes64_amd64.s). Only a host with
// hasAVX512VBMI may call it.
//
//go:noescape
func lanes64(prof, cols, he, harvest, vmax []byte, bias, gapOE, gapE int) (slots int)
