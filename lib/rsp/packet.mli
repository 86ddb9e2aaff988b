(** GDB Remote Serial Protocol packet framing.

    A packet is [$<payload>#<xx>] where [xx] is the two-hex-digit modulo-256
    sum of the payload bytes.  Payload bytes [$], [#], [}], [*] are escaped
    as [}] followed by the byte xor 0x20; run-length encoding
    ([<byte>*<count+29>]) is accepted on decode (gdbserver emits it) but
    never produced on encode. *)

exception Malformed of string

val checksum : string -> int
val encode : string -> string
(** Frame a payload: escape, append checksum. *)

val decode : string -> string
(** Unframe one packet: verify checksum, undo escapes and run-length
    encoding.  The string must be exactly one frame ([$...#xx]).
    @raise Malformed on bad framing or checksum. *)

(** A payload in place: [len] bytes of [s] from [off]. *)
type slice = { s : string; off : int; len : int }

val decode_slice : string -> slice
(** {!decode} without the copy: a frame that needs no unescaping yields
    its payload as a slice of the frame itself, so a page-block read's
    8 KiB of hex is never copied before it is decoded. *)

val to_string : slice -> string

(** Incremental deframing for byte-stream transports.

    A TCP or serial connection delivers frames split and coalesced
    arbitrarily across reads, interleaved with single-byte ACK ([+]) /
    NAK ([-]) responses and, after a damaged exchange, garbage.  A
    deframer holds the parse state between reads: feed it each chunk as
    it arrives and act on the completed events.  Junk outside a frame is
    skipped (counted by {!Deframer.junk}) until the next [$] — the
    resynchronisation a real stub performs.  A frame that arrives
    complete but damaged (checksum mismatch, bad escapes) is reported as
    [Bad] rather than raising, because on a live connection the right
    response is a NAK, not an exception. *)
module Deframer : sig
  type event =
    | Frame of string  (** a well-formed frame's decoded payload *)
    | Bad of string  (** a complete but damaged frame: reply NAK *)
    | Ack  (** a bare [+] *)
    | Nak  (** a bare [-] *)

  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> int -> event list
  (** [feed t buf off len] consumes [len] bytes of [buf] starting at
      [off] and returns the events they complete, in order.  Partial
      frames stay buffered for the next call.
      @raise Invalid_argument on an out-of-bounds range. *)

  val junk : t -> int
  (** Bytes skipped while hunting for a [$] outside any frame. *)

  val pending : t -> bool
  (** Whether a partially received frame is buffered. *)
end

val hex_of_bytes : bytes -> string
val bytes_of_hex : string -> bytes
(** @raise Malformed on odd length or non-hex digits. *)

val bytes_of_hex_sub : string -> int -> int -> bytes
(** [bytes_of_hex_sub s off len] decodes the [len] hex digits of [s]
    from [off]. *)
