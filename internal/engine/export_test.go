package engine

import "gostats/internal/freelist"

// FreeStores reports how many session stores the engine's free list holds.
func FreeStores() int { return stores.Len() }

// DropStores empties the free list: the sessions that follow run on
// storage allocated for them, until one of them hands its own back.
func DropStores() { stores = freelist.List[sessionStore]{} }
