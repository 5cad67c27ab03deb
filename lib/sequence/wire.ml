(* --- CRC-32 (zlib polynomial), table-based; built eagerly, since
   [Lazy.force] is not domain-safe and several domains checksum at once *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let[@inline] step c byte =
  Array.unsafe_get crc_table ((c lxor byte) land 0xFF) lxor (c lsr 8)

let crc32_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wire.crc32_sub";
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := step !c (Char.code (String.unsafe_get s i))
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)

type bytes_map = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* an unchecked index here would read (or fault on) pages outside the
   mapped file, so the range is checked up front *)
let crc32_map (m : bytes_map) ~pos ~len =
  if pos < 0 || len < 0 || pos > Bigarray.Array1.dim m - len then
    invalid_arg "Wire.crc32_map";
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := step !c (Char.code (Bigarray.Array1.unsafe_get m i))
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* --- canonical LEB128 varints --- *)

let varint_max = 9

(* all 63 bits of [v], unsigned; the checked [Bytes.set] turns an
   encoder's wrong size bound into an exception, not a heap overrun *)
let put_bits b off v =
  let off = ref off and v = ref v in
  while !v lsr 7 <> 0 do
    Bytes.set b !off (Char.unsafe_chr (!v land 0x7F lor 0x80));
    v := !v lsr 7;
    incr off
  done;
  Bytes.set b !off (Char.unsafe_chr !v);
  !off + 1

let put_uint b off v =
  if v < 0 then invalid_arg "Wire.put_uint: negative value";
  put_bits b off v

(* zigzag: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ..., a bijection of the
   63-bit ints *)
let put_int b off v = put_bits b off ((v lsl 1) lxor (v asr 62))

let put_float b off f =
  Bytes.set_int64_le b off (Int64.bits_of_float f);
  off + 8

let put_string b off s =
  let off = put_uint b off (String.length s) in
  Bytes.blit_string s 0 b off (String.length s);
  off + String.length s

let encode ~bound put =
  let b = Bytes.create bound in
  Bytes.sub_string b 0 (put b 0)

let add_uint buf v =
  let b = Bytes.create varint_max in
  Buffer.add_subbytes buf b 0 (put_uint b 0 v)

let add_string buf s =
  add_uint buf (String.length s);
  Buffer.add_string buf s

(* --- bounded payload reader --- *)

type cursor = { s : string; mutable pos : int; stop : int }

let remaining c = c.stop - c.pos

(* [top] is the largest ninth byte: [0x3F] keeps a value below 2^62,
   [0x7F] admits all 63 bits; anything above it either continues past 9
   bytes or sets a bit the value cannot hold *)
let[@inline] get_bits c ~top =
  let p = ref c.pos and acc = ref 0 and shift = ref 0 and fin = ref false in
  while not !fin do
    if !p >= c.stop then invalid_arg "varint: truncated";
    let b = Char.code (String.unsafe_get c.s !p) in
    incr p;
    if !shift = 56 && b > top then invalid_arg "varint: value out of range";
    acc := !acc lor ((b land 0x7F) lsl !shift);
    if b < 0x80 then begin
      if b = 0 && !shift > 0 then invalid_arg "varint: overlong";
      fin := true
    end
    else shift := !shift + 7
  done;
  c.pos <- !p;
  !acc

let get_uint c = get_bits c ~top:0x3F

let get_int c =
  let z = get_bits c ~top:0x7F in
  (z lsr 1) lxor -(z land 1)

let get_float c =
  if remaining c < 8 then invalid_arg "float: truncated";
  let f = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  f

let get_count c =
  let n = get_uint c in
  if n > remaining c then invalid_arg "count exceeds payload";
  n

let get_flag c =
  match get_uint c with 0 -> false | 1 -> true | _ -> invalid_arg "flag is not 0 or 1"

let get_string c =
  let n = get_count c in
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let take_rest c =
  let at = c.pos in
  c.pos <- c.stop;
  (at, c.stop - at)

let decode f s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wire.decode: range outside the buffer";
  let c = { s; pos = off; stop = off + len } in
  let v = f c in
  if c.pos <> c.stop then invalid_arg "trailing bytes";
  v

(* --- socket frames: u32 BE length, u32 BE CRC-32, payload --- *)

exception Frame_error of string
exception Timeout

let header_bytes = 8
let max_frame_bytes = 64 * 1024 * 1024

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let read_into fd b len =
  let rec go off =
    if off >= len then true
    else
      match Unix.read fd b off (len - off) with
      | 0 ->
        if off = 0 then false else raise (Frame_error "connection closed mid-frame")
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise Timeout
  in
  go 0

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* a length over the cap is refused before anything is allocated for it *)
let capped len =
  if len > max_frame_bytes then
    raise (Frame_error (Printf.sprintf "frame too large (%d bytes)" len));
  len

let seal b ~len =
  let len = capped len in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_int32_be b 4
    (Int32.of_int (crc32_sub (Bytes.unsafe_to_string b) header_bytes len))

let frame_at b ~pos ~stop =
  if stop - pos < header_bytes then None
  else
    let len = capped (get_u32 b pos) in
    if stop - pos - header_bytes < len then None
    else if
      crc32_sub (Bytes.unsafe_to_string b) (pos + header_bytes) len <> get_u32 b (pos + 4)
    then raise (Frame_error "frame CRC mismatch")
    else Some len

(* --- connections: every frame built and read in the connection's own
   buffers --- *)

type conn = { fd : Unix.file_descr; mutable rbuf : bytes; mutable wbuf : bytes }

let conn fd = { fd; rbuf = Bytes.create 4096; wbuf = Bytes.create 4096 }
let conn_fd c = c.fd

(* a buffer too small is replaced by one at least twice its size *)
let room b need =
  if Bytes.length b >= need then b else Bytes.create (max need (2 * Bytes.length b))

let send c ~bound put =
  c.wbuf <- room c.wbuf (header_bytes + bound);
  let len = put c.wbuf header_bytes - header_bytes in
  seal c.wbuf ~len;
  write_all c.fd c.wbuf 0 (header_bytes + len);
  header_bytes + len

(* the header lands in the read buffer too; its fields are taken out
   before the payload overwrites it *)
let recv c decode =
  if not (read_into c.fd c.rbuf header_bytes) then None
  else begin
    let len = capped (get_u32 c.rbuf 0) and crc = get_u32 c.rbuf 4 in
    c.rbuf <- room c.rbuf len;
    if not (read_into c.fd c.rbuf len) then raise (Frame_error "connection closed mid-frame");
    let s = Bytes.unsafe_to_string c.rbuf in
    if crc32_sub s 0 len <> crc then raise (Frame_error "frame CRC mismatch");
    match decode s ~off:0 ~len with
    | v -> Some (v, header_bytes + len)
    | exception Invalid_argument msg -> raise (Frame_error ("undecodable payload: " ^ msg))
  end
