//go:build asfpoison

package asf

// poisonLent makes the reader overwrite what ReadPacket lent with 0xDB at
// the start of the next read, and a window before it is listed for the
// next reader, so a caller that kept a lent Payload fails its tests
// instead of passing until a fill happens to land on it.
const poisonLent = true
