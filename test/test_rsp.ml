(* The GDB remote-serial-protocol substrate: framing, server, client. *)

module Packet = Duel_rsp.Packet
module Server = Duel_rsp.Server
module Client = Duel_rsp.Client
module Dbgi = Duel_dbgi.Dbgi
module Ctype = Duel_ctype.Ctype
module Inferior = Duel_target.Inferior

let case = Support.case

let framing () =
  Alcotest.(check string) "simple frame" "$m10,4#2e" (Packet.encode "m10,4");
  Alcotest.(check string) "decode" "m10,4" (Packet.decode "$m10,4#2e");
  Alcotest.(check string) "empty payload" "" (Packet.decode (Packet.encode ""));
  Alcotest.(check int) "checksum is mod 256" 0x2e (Packet.checksum "m10,4")

let escaping () =
  let tricky = "a#b$c}d*e" in
  Alcotest.(check string) "escaped roundtrip" tricky
    (Packet.decode (Packet.encode tricky));
  (* the encoded form must not contain a bare '#' before the trailer *)
  let encoded = Packet.encode tricky in
  let body = String.sub encoded 1 (String.length encoded - 4) in
  Alcotest.(check bool) "no raw specials in body" false
    (String.exists (fun c -> c = '$') body)

let rle () =
  (* "0* " means '0' repeated (' ' - 29 + 1) = 4 times total *)
  let payload = "0* " in
  let framed = Printf.sprintf "$%s#%02x" payload (Packet.checksum payload) in
  Alcotest.(check string) "run-length decode" "0000" (Packet.decode framed)

let malformed () =
  let bad what raw =
    Alcotest.(check bool) what true
      (match Packet.decode raw with
      | _ -> false
      | exception Packet.Malformed _ -> true)
  in
  bad "no frame" "m10,4";
  bad "bad checksum" "$m10,4#00";
  bad "truncated" "$m";
  bad "trailing escape" (Printf.sprintf "$a}#%02x" (Packet.checksum "a}"));
  bad "rle without prior" (Printf.sprintf "$*x#%02x" (Packet.checksum "*x"))

let hex () =
  Alcotest.(check string) "bytes to hex" "00ff10"
    (Packet.hex_of_bytes (Bytes.of_string "\000\255\016"));
  Alcotest.(check string) "hex to bytes" "\000\255\016"
    (Bytes.to_string (Packet.bytes_of_hex "00ff10"));
  Alcotest.(check bool) "odd length rejected" true
    (match Packet.bytes_of_hex "abc" with
    | _ -> false
    | exception Packet.Malformed _ -> true)

let prop_packet_roundtrip =
  QCheck2.Test.make ~name:"packet encode/decode roundtrip" ~count:500
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun payload -> Packet.decode (Packet.encode payload) = payload)

(* --- the codec against its per-character reference ------------------- *)

(* The codec as it was before its whole-string fast paths: escape and
   unescape one [Buffer.add_char] at a time, deframe one character at a
   time.  The fast paths must put the same bytes on the wire, decode the
   same payloads and report the same damage. *)
module Reference = struct
  let escape payload =
    let b = Buffer.create (String.length payload + 8) in
    String.iter
      (fun c ->
        if c = '$' || c = '#' || c = '}' || c = '*' then begin
          Buffer.add_char b '}';
          Buffer.add_char b (Char.chr (Char.code c lxor 0x20))
        end
        else Buffer.add_char b c)
      payload;
    Buffer.contents b

  let encode payload =
    let escaped = escape payload in
    Printf.sprintf "$%s#%02x" escaped (Packet.checksum escaped)

  let unescape body =
    let b = Buffer.create (String.length body) in
    let rec go i =
      if i < String.length body then
        match body.[i] with
        | '}' ->
            if i + 1 >= String.length body then
              raise (Packet.Malformed "trailing escape");
            Buffer.add_char b (Char.chr (Char.code body.[i + 1] lxor 0x20));
            go (i + 2)
        | '*' ->
            if i + 1 >= String.length body then
              raise (Packet.Malformed "trailing RLE");
            if Buffer.length b = 0 then
              raise (Packet.Malformed "RLE with no prior byte");
            let count = Char.code body.[i + 1] - 29 in
            if count < 3 then raise (Packet.Malformed "RLE count too small");
            let prev = Buffer.nth b (Buffer.length b - 1) in
            for _ = 1 to count do
              Buffer.add_char b prev
            done;
            go (i + 2)
        | c ->
            Buffer.add_char b c;
            go (i + 1)
    in
    go 0;
    Buffer.contents b

  type state = Idle | Body | Check1 | Check2 of char

  type t = { mutable state : state; body : Buffer.t; mutable junk : int }

  let create () = { state = Idle; body = Buffer.create 64; junk = 0 }

  let hex_val c =
    match c with
    | '0' .. '9' -> Some (Char.code c - 48)
    | 'a' .. 'f' -> Some (Char.code c - 87)
    | 'A' .. 'F' -> Some (Char.code c - 55)
    | _ -> None

  let finish t c1 c2 =
    let body = Buffer.contents t.body in
    Buffer.clear t.body;
    t.state <- Idle;
    match (hex_val c1, hex_val c2) with
    | Some hi, Some lo ->
        if Packet.checksum body <> (hi lsl 4) lor lo then
          Packet.Deframer.Bad "checksum mismatch"
        else begin
          match unescape body with
          | payload -> Packet.Deframer.Frame payload
          | exception Packet.Malformed msg -> Packet.Deframer.Bad msg
        end
    | _ -> Packet.Deframer.Bad "bad checksum digits"

  let feed t s =
    let events = ref [] in
    let emit e = events := e :: !events in
    String.iter
      (fun c ->
        match t.state with
        | Idle -> (
            match c with
            | '$' -> t.state <- Body
            | '+' -> emit Packet.Deframer.Ack
            | '-' -> emit Packet.Deframer.Nak
            | _ -> t.junk <- t.junk + 1)
        | Body -> (
            match c with
            | '#' -> t.state <- Check1
            | '$' ->
                Buffer.clear t.body;
                emit (Packet.Deframer.Bad "unterminated frame")
            | c -> Buffer.add_char t.body c)
        | Check1 ->
            if c = '$' then begin
              Buffer.clear t.body;
              emit (Packet.Deframer.Bad "frame cut at checksum");
              t.state <- Body
            end
            else t.state <- Check2 c
        | Check2 c1 ->
            if c = '$' then begin
              Buffer.clear t.body;
              emit (Packet.Deframer.Bad "frame cut at checksum");
              t.state <- Body
            end
            else emit (finish t c1 c))
      s;
    List.rev !events

  let decode raw =
    let n = String.length raw in
    if n < 4 || raw.[0] <> '$' || raw.[n - 3] <> '#' then
      raise (Packet.Malformed "missing $...#xx frame");
    let d = create () in
    match feed d raw with
    | [ Packet.Deframer.Frame payload ] when d.state = Idle && d.junk = 0 ->
        payload
    | [ Packet.Deframer.Bad msg ] -> raise (Packet.Malformed msg)
    | _ -> raise (Packet.Malformed "not exactly one frame")
end

(* Payload bytes that the framing must escape turn up often. *)
let gen_payload =
  QCheck2.Gen.(
    string_size
      ~gen:(frequency [ (1, oneofl [ '$'; '#'; '}'; '*' ]); (5, printable) ])
      (int_range 0 120))

let frame_of_body body = Printf.sprintf "$%s#%02x" body (Packet.checksum body)

(* Raw frames as a stub may send them: clean, run-length encoded, with
   a broken checksum, a broken escape or RLE, or cut short. *)
let gen_frame =
  let open QCheck2.Gen in
  let rle =
    map2
      (fun c n ->
        (* count characters '#' and '$' are never sent: gdbserver skips
           the lengths that would produce them *)
        let n = if n + 29 = 35 || n + 29 = 36 then n + 2 else n in
        Printf.sprintf "%c*%c" c (Char.chr (n + 29)))
      (oneofl [ '0'; 'a'; 'f'; ' '; 'z' ])
      (int_range 3 90)
  in
  frequency
    [
      (3, map Packet.encode gen_payload);
      ( 2,
        map2
          (fun a runs -> frame_of_body (a ^ String.concat "" runs))
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 5))
          (list_size (int_range 1 4) rle) );
      ( 1,
        map
          (fun p ->
            let f = Packet.encode p in
            String.sub f 0 (String.length f - 2) ^ "zz")
          gen_payload );
      ( 1,
        map
          (fun p ->
            let f = Packet.encode p in
            let n = String.length f in
            let bad =
              (Packet.checksum (String.sub f 1 (n - 4)) + 1) land 0xff
            in
            String.sub f 0 (n - 2) ^ Printf.sprintf "%02x" bad)
          gen_payload );
      (1, map (fun p -> frame_of_body (p ^ "}")) (string_size (int_range 0 5)));
      (1, return (frame_of_body "*x"));
      (1, return (frame_of_body "a*\031"));
      ( 1,
        map
          (fun p -> "$" ^ p ^ "#")
          (string_size ~gen:printable (int_range 0 8)) );
    ]

let prop_encode_matches_reference =
  QCheck2.Test.make ~name:"codec: encode puts the reference bytes on the wire"
    ~count:500 gen_payload (fun p ->
      Packet.encode p = Reference.encode p
      && Packet.decode (Packet.encode p) = p)

let outcome f x =
  match f x with v -> Ok v | exception Packet.Malformed m -> Error m

let prop_decode_matches_reference =
  QCheck2.Test.make ~name:"codec: decode matches the per-character reference"
    ~count:500
    QCheck2.Gen.(
      frequency
        [
          (4, gen_frame);
          ( 1,
            string_size
              ~gen:(oneofl [ '$'; '#'; 'a'; '0'; '}'; '*' ])
              (int_range 0 12) );
        ])
    (fun raw -> outcome Packet.decode raw = outcome Reference.decode raw)

(* One stream of frames, acks, naks and junk, fed in random chunks, must
   yield the events of a byte-at-a-time feed and of the reference. *)
let prop_deframer_chunking =
  QCheck2.Test.make ~name:"codec: deframer events do not depend on chunking"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 8)
           (frequency
              [
                (5, gen_frame);
                (1, oneofl [ "+"; "-"; "junk"; "\n" ]);
              ]))
        (list_size (int_range 1 10) (int_range 1 40)))
    (fun (parts, sizes) ->
      let stream = Bytes.of_string (String.concat "" parts) in
      let n = Bytes.length stream in
      let feed_split next_size =
        let d = Packet.Deframer.create () in
        let rec go off k acc =
          if off >= n then List.concat (List.rev acc)
          else
            let len = min (next_size k) (n - off) in
            go (off + len) (k + 1)
              (Packet.Deframer.feed d stream off len :: acc)
        in
        go 0 0 []
      in
      let sizes = Array.of_list sizes in
      let chunked = feed_split (fun k -> sizes.(k mod Array.length sizes)) in
      let bytewise = feed_split (fun _ -> 1) in
      let reference =
        Reference.feed (Reference.create ()) (Bytes.to_string stream)
      in
      chunked = bytewise && bytewise = reference)

let server_memory () =
  let inf = Inferior.create () in
  let g = Inferior.define_global inf "g" (Ctype.array Ctype.char 8) in
  let srv = Server.create inf in
  let reply payload = Server.handle_payload srv payload in
  Alcotest.(check string) "write" "OK"
    (reply (Printf.sprintf "M%x,3:616263" g));
  Alcotest.(check string) "read back" "616263"
    (reply (Printf.sprintf "m%x,3" g));
  Alcotest.(check string) "fault read" "E01" (reply "m40000000,4");
  Alcotest.(check string) "fault write" "E01" (reply "M40000000,1:00");
  Alcotest.(check string) "length mismatch" "E02"
    (reply (Printf.sprintf "M%x,3:61" g));
  Alcotest.(check string) "unknown packet empty reply" "" (reply "Zmagic");
  Alcotest.(check string) "qSupported" "PacketSize=4000" (reply "qSupported:x");
  Alcotest.(check string) "halt reason" "S05" (reply "?")

let server_extensions () =
  let inf = Duel_scenarios.Scenarios.all () in
  let srv = Server.create inf in
  let reply payload = Server.handle_payload srv payload in
  let addr = reply "qDuelAlloc:20" in
  Alcotest.(check bool) "alloc returns hex addr" true
    (int_of_string ("0x" ^ addr) > 0);
  Alcotest.(check string) "frames count" "3" (reply "qDuelFrames");
  Alcotest.(check string) "call abs" "i7" (reply "qDuelCall:abs;ifffffffffffffff9");
  Alcotest.(check string) "bad cval is a protocol error" "$E00#a5"
    (Server.handle srv (Packet.encode "qDuelCall:abs;i-7"));
  Alcotest.(check bool) "call error surfaces" true
    (String.length (reply "qDuelCall:nosuch") > 2);
  Alcotest.(check string) "nak on garbage" "-" (Server.handle srv "not a packet")

let client_end_to_end () =
  let k = Support.kit_rsp () in
  Alcotest.(check (list string)) "query over the wire"
    [ "x[3] = 7"; "x[18] = 9"; "x[47] = 6" ]
    (Support.exec k "x[1..4,8,12..50] >? 5 <? 10");
  Alcotest.(check (list string)) "write over the wire"
    [ "w[0] = 77" ]
    (Support.exec k "w[0] = 77");
  Alcotest.(check (list string)) "declaration allocates remotely"
    [ "r0+1 = 8" ]
    (Support.exec k "int r0; r0 = 7; r0 + 1");
  Alcotest.(check (list string)) "call with return typing"
    [ "strchr(s, 'w') = \"world\"" ]
    (Support.exec k "strchr(s, 'w')");
  Alcotest.(check (list string)) "faults become DUEL errors"
    [ "Illegal memory reference: *(int *)0x40000000 = lvalue 0x40000000" ]
    (Support.exec k "*(int *)0x40000000")

let client_matches_direct () =
  let queries =
    [
      "(hash[..1024] !=? 0)->scope >? 5";
      "hash[0]-->next->scope";
      "head-->next->value[[3,5]]";
      "#/(root-->(left,right)->key)";
      "printf(\"%s\", argv[1])";
    ]
  in
  let direct = Support.kit () in
  let rsp = Support.kit_rsp () in
  List.iter
    (fun query ->
      Alcotest.(check (list string)) query (Support.exec direct query)
        (Support.exec rsp query);
      Alcotest.(check string) ("stdout: " ^ query)
        (Inferior.take_output direct.Support.inf)
        (Inferior.take_output rsp.Support.inf))
    queries

let suite =
  [
    case "packet framing and checksums" framing;
    case "payload escaping" escaping;
    case "run-length decoding" rle;
    case "malformed packets rejected" malformed;
    case "hex codecs" hex;
    QCheck_alcotest.to_alcotest prop_packet_roundtrip;
    QCheck_alcotest.to_alcotest prop_encode_matches_reference;
    QCheck_alcotest.to_alcotest prop_decode_matches_reference;
    QCheck_alcotest.to_alcotest prop_deframer_chunking;
    case "server memory packets" server_memory;
    case "server qDuel extensions" server_extensions;
    case "client end to end" client_end_to_end;
    case "client output matches direct backend" client_matches_direct;
  ]
