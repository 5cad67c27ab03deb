(** The byte-level rules of every trust boundary — the worker pipe
    (FORMAT.md Appendix B), the checkpoint log (Appendix A), the store
    (§1.4) and the daemon socket (DESIGN.md §8) — in one module, so the
    boundaries cannot drift apart. *)

(** {1 CRC-32}

    The ISO-HDLC / zlib polynomial ([0xEDB88320], FORMAT.md §1.4) over
    one eagerly built table, safe to use from any domain. *)

val crc32 : string -> int
(** [crc32 "123456789" = 0xCBF43926]. *)

val crc32_sub : string -> int -> int -> int
(** [crc32_sub s off len] is [crc32 (String.sub s off len)] without the
    copy. @raise Invalid_argument ["Wire.crc32_sub"] outside [s]. *)

type bytes_map = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val crc32_map : bytes_map -> pos:int -> len:int -> int
(** {!crc32} of [len] bytes of a mapped file at [pos].
    @raise Invalid_argument outside the map. *)

(** {1 Varints}

    Canonical unsigned LEB128 over [[0, 2^62)], at most {!varint_max}
    bytes (FORMAT.md A.3). *)

val varint_max : int
(** [9]. *)

val put_uint : bytes -> int -> int -> int
(** [put_uint b off v] writes [v] at [off] and returns the offset past
    it; the caller guarantees {!varint_max} bytes of room.
    @raise Invalid_argument when [v] is negative. *)

val put_string : bytes -> int -> string -> int
(** The length as a varint, then the bytes; room as {!put_uint}'s plus
    the bytes. *)

val add_uint : Buffer.t -> int -> unit
val add_string : Buffer.t -> string -> unit
(** {!put_uint} and {!put_string} onto a buffer. *)

(** {1 Payload reader}

    A cursor over a range of a string. Every read raises
    [Invalid_argument] — the decoders' one failure signal — on a
    truncated, overlong or out-of-range varint, a count or length past
    the bytes left, or a flag other than 0 or 1. *)

type cursor

val decode : (cursor -> 'a) -> string -> off:int -> len:int -> 'a
(** [decode f s ~off ~len] runs [f] over a cursor on [[off, off + len)]
    and insists that it read every byte.
    @raise Invalid_argument outside the string or on bytes left over. *)

val remaining : cursor -> int

val get_uint : cursor -> int
(** Refuses truncation, an overlong encoding and a value at or above
    [2^62] (a ninth byte above [0x3F]). *)

val get_count : cursor -> int
(** A count of elements or bytes still to come: each takes at least one
    byte, so it may not exceed {!remaining}. *)

val get_flag : cursor -> bool
val get_string : cursor -> string

val take_rest : cursor -> int * int
(** [(off, len)] of the unread bytes, which then count as read. *)

(** {1 Socket frames}

    {v
    offset 0   u32 big-endian   payload length (<= max_frame_bytes)
    offset 4   u32 big-endian   CRC-32 of the payload
    offset 8   payload
    v}

    The header of the daemon socket and the worker pipe (FORMAT.md
    B.1). Every operation retries [EINTR]. *)

exception Frame_error of string
(** An oversized length, a CRC mismatch, or an EOF inside a frame. *)

exception Timeout
(** A read hit the descriptor's [SO_RCVTIMEO]. *)

val header_bytes : int
(** [8]. *)

val max_frame_bytes : int
(** 64 MiB; a longer declared payload is refused before allocating. *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all fd b off len] writes the range, across short writes. *)

val read_into : Unix.file_descr -> bytes -> int -> bool
(** Fill the first [len] bytes; [false] on EOF before the first byte.
    @raise Frame_error on an EOF mid-way. @raise Timeout *)

val seal : bytes -> len:int -> unit
(** Write into the first 8 bytes the header of the payload at
    [[8, 8 + len)]. @raise Frame_error above the cap. *)

val write_frame : Unix.file_descr -> bytes -> len:int -> unit
(** {!seal}, then one write of header and payload. *)

val read_frame : Unix.file_descr -> bytes ref -> int option
(** Read one frame's payload to offset 0 of the reused buffer (replaced
    when too small) and return its length; [None] on EOF at a frame
    boundary. @raise Frame_error on a torn frame, a CRC mismatch, or an
    oversized length (before its payload is read). @raise Timeout *)

val frame_at : bytes -> pos:int -> stop:int -> int option
(** Check in place the frame at [pos] of the received bytes
    [[pos, stop)]: [Some len] when it is complete and its CRC matches
    (the payload is at [pos + 8]), [None] while it is incomplete.
    @raise Frame_error on a CRC mismatch, or an oversized length as soon
    as the header is complete. *)
