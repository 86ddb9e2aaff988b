exception Malformed of string

(* Frames carry 8 KiB of hex for a page-block read, so the codec works
   on whole strings and runs, never a [Buffer] byte at a time, and hands
   out a clean frame's payload in place: a large transient copy is a
   major-heap allocation. *)

let sum_sub s off len =
  let sum = ref 0 in
  for i = off to off + len - 1 do
    sum := !sum + Char.code (String.unsafe_get s i)
  done;
  !sum land 0xff

let checksum payload = sum_sub payload 0 (String.length payload)

let must_escape c = c = '$' || c = '#' || c = '}' || c = '*'
let hex_digits = "0123456789abcdef"

(* One pass, one allocation: escape only the bytes that need it. *)
let encode payload =
  let n = String.length payload in
  let escapes = ref 0 in
  String.iter (fun c -> if must_escape c then incr escapes) payload;
  let m = n + !escapes in
  let out = Bytes.create (m + 4) in
  Bytes.unsafe_set out 0 '$';
  if !escapes = 0 then Bytes.blit_string payload 0 out 1 n
  else begin
    let j = ref 1 in
    String.iter
      (fun c ->
        if must_escape c then begin
          Bytes.unsafe_set out !j '}';
          Bytes.unsafe_set out (!j + 1)
            (Char.unsafe_chr (Char.code c lxor 0x20));
          j := !j + 2
        end
        else begin
          Bytes.unsafe_set out !j c;
          incr j
        end)
      payload
  end;
  let sum = sum_sub (Bytes.unsafe_to_string out) 1 m in
  Bytes.unsafe_set out (m + 1) '#';
  Bytes.unsafe_set out (m + 2) hex_digits.[sum lsr 4];
  Bytes.unsafe_set out (m + 3) hex_digits.[sum land 0xf];
  Bytes.unsafe_to_string out

(* Memory packets are the hot path (one [m]/[M] per block fill or
   coalesced write), so the hex codecs are single-pass loops over
   preallocated buffers — no Buffer growth, no per-byte closures. *)

let hex_of_bytes data =
  let out = Bytes.create (2 * Bytes.length data) in
  for i = 0 to Bytes.length data - 1 do
    let c = Char.code (Bytes.unsafe_get data i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out
      ((2 * i) + 1)
      (String.unsafe_get hex_digits (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> raise (Malformed (Printf.sprintf "bad hex digit %C" c))

let bytes_of_hex_sub s off len =
  if len mod 2 <> 0 then raise (Malformed "odd hex length");
  let out = Bytes.create (len / 2) in
  for i = 0 to (len / 2) - 1 do
    let hi = nibble (String.unsafe_get s (off + (2 * i))) in
    let lo = nibble (String.unsafe_get s (off + (2 * i) + 1)) in
    Bytes.unsafe_set out i (Char.unsafe_chr ((hi lsl 4) lor lo))
  done;
  out

let bytes_of_hex s = bytes_of_hex_sub s 0 (String.length s)

(* A payload: [len] bytes of [s] from [off]. *)
type slice = { s : string; off : int; len : int }

let to_string p =
  if p.off = 0 && p.len = String.length p.s then p.s
  else String.sub p.s p.off p.len

(* Undo escapes and run-length encoding in a raw (verified) frame body. *)
let unescape s off len =
  let b = Buffer.create len in
  let last = off + len in
  let rec go i =
    if i < last then
      match s.[i] with
      | '}' ->
          if i + 1 >= last then raise (Malformed "trailing escape");
          Buffer.add_char b (Char.chr (Char.code s.[i + 1] lxor 0x20));
          go (i + 2)
      | '*' ->
          if i + 1 >= last then raise (Malformed "trailing RLE");
          if Buffer.length b = 0 then raise (Malformed "RLE with no prior byte");
          let count = Char.code s.[i + 1] - 29 in
          if count < 3 then raise (Malformed "RLE count too small");
          let prev = Buffer.nth b (Buffer.length b - 1) in
          for _ = 1 to count do
            Buffer.add_char b prev
          done;
          go (i + 2)
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go off;
  Buffer.contents b

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - 48)
  | 'a' .. 'f' -> Some (Char.code c - 87)
  | 'A' .. 'F' -> Some (Char.code c - 55)
  | _ -> None

(* The payload of the body [s.[off .. off+len-1]] whose checksum digits
   are [c1 c2]: the body itself unless it holds a [}] or [*]. *)
let verify s off len c1 c2 =
  match (hex_val c1, hex_val c2) with
  | Some hi, Some lo ->
      if sum_sub s off len <> (hi lsl 4) lor lo then
        raise (Malformed "checksum mismatch");
      let plain = ref true in
      for i = off to off + len - 1 do
        match String.unsafe_get s i with '}' | '*' -> plain := false | _ -> ()
      done;
      if !plain then { s; off; len }
      else
        let u = unescape s off len in
        { s = u; off = 0; len = String.length u }
  | _ -> raise (Malformed "bad checksum digits")

(* A byte-stream transport delivers frames split and coalesced arbitrarily
   across reads, with ACK/NAK bytes (and, after a damaged exchange,
   garbage) between them.  The deframer is the incremental state machine
   a real remote stub runs: bytes go in as they arrive, complete events
   come out, and anything unframeable is skipped until the next '$'. *)
module Deframer = struct
  type event = Frame of string | Bad of string | Ack | Nak

  type state =
    | Idle  (* between frames: expect '$', '+', '-'; skip junk *)
    | Body  (* inside $...: accumulating raw body bytes *)
    | Check1  (* seen '#': expect first checksum digit *)
    | Check2 of char  (* expect second checksum digit *)

  type t = {
    mutable state : state;
    body : Buffer.t;
    mutable junk : int;
  }

  let create () = { state = Idle; body = Buffer.create 64; junk = 0 }
  let junk t = t.junk
  let pending t = t.state <> Idle

  (* Complete a frame whose raw body and checksum digits are in hand. *)
  let finish t c1 c2 =
    let body = Buffer.contents t.body in
    Buffer.clear t.body;
    t.state <- Idle;
    match verify body 0 (String.length body) c1 c2 with
    | payload -> Frame (to_string payload)
    | exception Malformed msg -> Bad msg

  (* The end of the body run starting at [i]: the next '#' or '$'. *)
  let rec run_end buf i last =
    if i >= last then last
    else match Bytes.unsafe_get buf i with
      | '#' | '$' -> i
      | _ -> run_end buf (i + 1) last

  let feed t buf off len =
    if off < 0 || len < 0 || off + len > Bytes.length buf then
      invalid_arg "Deframer.feed";
    let events = ref [] in
    let emit e = events := e :: !events in
    let last = off + len in
    let i = ref off in
    while !i < last do
      let c = Bytes.get buf !i in
      (match t.state with
      | Idle -> (
          match c with
          | '$' -> t.state <- Body
          | '+' -> emit Ack
          | '-' -> emit Nak
          | _ -> t.junk <- t.junk + 1)
      | Body -> (
          match c with
          | '#' -> t.state <- Check1
          | '$' ->
              (* A '$' can only start a frame ('$' inside a body is
                 escaped): the one in progress was cut short.  Report it
                 and resync on the new frame. *)
              Buffer.clear t.body;
              emit (Bad "unterminated frame")
          | _ ->
              let e = run_end buf !i last in
              Buffer.add_subbytes t.body buf !i (e - !i);
              i := e - 1)
      | Check1 ->
          if c = '$' then begin
            (* The frame was cut before its checksum and a new one starts
               right here, possibly in the same read chunk as the trailing
               garbage.  Consuming the '$' as a checksum digit would
               silently discard the next (valid) frame — report the
               damaged one and resync on the new frame instead. *)
            Buffer.clear t.body;
            emit (Bad "frame cut at checksum");
            t.state <- Body
          end
          else t.state <- Check2 c
      | Check2 c1 ->
          if c = '$' then begin
            Buffer.clear t.body;
            emit (Bad "frame cut at checksum");
            t.state <- Body
          end
          else emit (finish t c1 c));
      incr i
    done;
    List.rev !events
end

(* The whole-string API used by the in-process loopback: one complete
   frame per call, strict about its shape.  A frame whose body holds no
   '$' or '#' (every frame [encode] makes) is checked in place; anything
   else goes through the deframer, which names the damage. *)
let decode_slice raw =
  let n = String.length raw in
  if n < 4 || raw.[0] <> '$' || raw.[n - 3] <> '#' then
    raise (Malformed "missing $...#xx frame");
  let clean = ref (raw.[n - 2] <> '$' && raw.[n - 1] <> '$') in
  for i = 1 to n - 4 do
    match String.unsafe_get raw i with '$' | '#' -> clean := false | _ -> ()
  done;
  if !clean then verify raw 1 (n - 4) raw.[n - 2] raw.[n - 1]
  else
    let d = Deframer.create () in
    match Deframer.feed d (Bytes.unsafe_of_string raw) 0 n with
    | [ Deframer.Frame payload ]
      when (not (Deframer.pending d)) && d.Deframer.junk = 0 ->
        { s = payload; off = 0; len = String.length payload }
    | [ Deframer.Bad msg ] -> raise (Malformed msg)
    | _ -> raise (Malformed "not exactly one frame")

let decode raw = to_string (decode_slice raw)
