(** The byte-level rules of every trust boundary — the worker pipe
    (FORMAT.md Appendix B), the checkpoint log (Appendix A), the store
    (§1.4) and the daemon socket (Appendix C) — in one module, so the
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

    LEB128, at most {!varint_max} bytes (FORMAT.md A.3): unsigned over
    [[0, 2^62)], and zigzag-coded over every [int] (Appendix C.2). *)

val varint_max : int
(** [9]. *)

val put_uint : bytes -> int -> int -> int
(** [put_uint b off v] writes [v] at [off] and returns the offset past
    it; the caller guarantees {!varint_max} bytes of room.
    @raise Invalid_argument when [v] is negative, or past the end of
    [b]. *)

val put_int : bytes -> int -> int -> int
(** As {!put_uint} for any [int], zigzag-coded: [0, -1, 1, -2, ...]
    become [0, 1, 2, 3, ...]. *)

val put_float : bytes -> int -> float -> int
(** The IEEE-754 bits of a float, 8 bytes little-endian, so every value
    (NaN payloads included) comes back bit for bit. *)

val put_string : bytes -> int -> string -> int
(** The length as a varint, then the bytes; room as {!put_uint}'s plus
    the bytes. *)

val encode : bound:int -> (bytes -> int -> int) -> string
(** [encode ~bound put] is the payload [put b 0] writes — at most
    [bound] bytes — and ends at the offset it returns: the encoding
    side of {!decode}, and of {!send} without the frame. *)

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

val get_int : cursor -> int
(** The inverse of {!put_int}; refuses truncation, an overlong encoding
    and a ninth byte above [0x7F]. *)

val get_float : cursor -> float
(** The inverse of {!put_float}; refuses fewer than 8 bytes left. *)

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

val frame_at : bytes -> pos:int -> stop:int -> int option
(** Check in place the frame at [pos] of the received bytes
    [[pos, stop)]: [Some len] when it is complete and its CRC matches
    (the payload is at [pos + 8]), [None] while it is incomplete.
    @raise Frame_error on a CRC mismatch, or an oversized length as soon
    as the header is complete. *)

(** {1 Connections}

    A blocking descriptor with one read and one write buffer, reused by
    every frame on it: a payload is built in place behind its header and
    sent with one write, and every frame read lands in the read buffer.
    Not thread-safe: callers serialise writes. *)

type conn

val conn : Unix.file_descr -> conn
val conn_fd : conn -> Unix.file_descr

val send : conn -> bound:int -> (bytes -> int -> int) -> int
(** [send c ~bound put] has [put b off] write one payload into [b] from
    [off] — at most [bound] bytes — and return the offset past it, then
    seals it and writes the frame. Returns the frame's size, header
    included. @raise Frame_error above the cap. *)

val recv : conn -> (string -> off:int -> len:int -> 'a) -> ('a * int) option
(** Read one frame and decode its payload where it lies; the decoder
    must copy what it keeps. Returns the value and the frame's size,
    header included; [None] on EOF at a frame boundary.
    @raise Frame_error on a torn frame, a CRC mismatch, an oversized
    length (before its payload is read), or a payload the decoder
    refuses with [Invalid_argument]. @raise Timeout *)
