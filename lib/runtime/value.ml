(* Runtime values for the MiniC++ interpreter.

   Objects are flattened: a complete object holds one slot per instance
   data member of its class and of every (transitively) inherited base.
   Slot numbers are assigned per dynamic class by the resolve pass from
   the member's identity (defining class, name); virtual bases therefore
   appear once, matching C++ semantics. Repeated non-virtual bases are
   rejected by the semantic analysis. Class-typed data members are
   embedded objects stored as [VObj]. *)

open Sema

type value =
  | VUnit
  | VInt of int          (* int/long/char/bool *)
  | VFloat of float
  | VStr of string       (* char* pointing at a string literal *)
  | VNull
  | VPtr of pointer
  | VObj of obj          (* class-typed subobject / local *)
  | VArr of harray       (* array object (local, member, or heap) *)
  | VMemPtr of Member.t
  | VFunPtr of Typed_ast.Func_id.t

and pointer =
  | PObj of obj                (* pointer to a class object *)
  | PArr of harray * int       (* pointer into an array *)

and obj = {
  obj_id : int;
  obj_class : string;  (* most-derived (dynamic) class *)
  obj_cid : int;       (* interned id of the dynamic class (resolve pass) *)
  fields : harray;     (* boxed member bank, one cell per boxed member *)
  ifields : int array;   (* unboxed integral member bank (bytecode VM only) *)
}

and harray = {
  arr_id : int;
      (* journalled allocation id of a class-object array; -1 for scalar
         and member arrays *)
  cells : value array;
}

exception Runtime_error of string

(* A configured resource limit (steps, call depth, object count) was hit,
   or a native resource exception (Stack_overflow, Out_of_memory) was
   intercepted. Kept distinct from [Runtime_error] so the CLI can map it
   to its own exit code (3) in the documented contract. *)
exception Limit_exceeded of string

let runtime_error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt
let limit_exceeded fmt = Fmt.kstr (fun m -> raise (Limit_exceeded m)) fmt

(* -- cooperative deadlines ----------------------------------------------------

   A per-domain wall-clock deadline, checked by both engines at their
   existing tick points (every few thousand steps, so the check stays
   off the hot path). Domains cannot be interrupted asynchronously in
   OCaml, so a hung request can only be cancelled cooperatively: the
   serve daemon arms a deadline before running a request and the
   interpreter raises [Limit_exceeded] — the same structured error as
   the step/depth/object guards — once it passes. Domain-local state
   keeps concurrent worker domains' deadlines independent. *)

let deadline_key : float Domain.DLS.key =
  Domain.DLS.new_key (fun () -> infinity)

(* [arm_deadline t] arms an absolute wall-clock deadline [t] (the
   [Unix.gettimeofday] timebase, seconds) for the calling domain. *)
let arm_deadline t = Domain.DLS.set deadline_key t
let disarm_deadline () = Domain.DLS.set deadline_key infinity
let deadline_expired () = Unix.gettimeofday () > Domain.DLS.get deadline_key

let check_deadline () =
  if deadline_expired () then
    limit_exceeded "deadline exceeded: request wall-clock budget consumed"

(* How many interpreter steps may pass between wall-clock reads. Both
   engines fold this into their step-limit compare (a [next_stop]
   checkpoint) so the hot tick path stays one increment + one test. *)
let deadline_check_interval = 2048

let with_deadline t f =
  arm_deadline t;
  Fun.protect ~finally:disarm_deadline f

(* Shared [VInt] blocks for the values the interpreted programs actually
   produce (loop counters, flags, small arithmetic): [VInt] is immutable,
   so sharing one block per small integer is unobservable, and it keeps
   the hot arithmetic/comparison paths of both engines off the minor
   heap.

   The table is written out, [VInt (-256)] to [VInt 1024], so that the
   compiler emits it as static data: built with [Array.init] from a
   young [VInt], the 1281-word array would force a minor collection
   while the module initialises, in every process that links the
   runtime. *)
let vint_cache =
  [|
    VInt (-256); VInt (-255); VInt (-254); VInt (-253); VInt (-252);
    VInt (-251); VInt (-250); VInt (-249); VInt (-248); VInt (-247);
    VInt (-246); VInt (-245); VInt (-244); VInt (-243); VInt (-242);
    VInt (-241); VInt (-240); VInt (-239); VInt (-238); VInt (-237);
    VInt (-236); VInt (-235); VInt (-234); VInt (-233); VInt (-232);
    VInt (-231); VInt (-230); VInt (-229); VInt (-228); VInt (-227);
    VInt (-226); VInt (-225); VInt (-224); VInt (-223); VInt (-222);
    VInt (-221); VInt (-220); VInt (-219); VInt (-218); VInt (-217);
    VInt (-216); VInt (-215); VInt (-214); VInt (-213); VInt (-212);
    VInt (-211); VInt (-210); VInt (-209); VInt (-208); VInt (-207);
    VInt (-206); VInt (-205); VInt (-204); VInt (-203); VInt (-202);
    VInt (-201); VInt (-200); VInt (-199); VInt (-198); VInt (-197);
    VInt (-196); VInt (-195); VInt (-194); VInt (-193); VInt (-192);
    VInt (-191); VInt (-190); VInt (-189); VInt (-188); VInt (-187);
    VInt (-186); VInt (-185); VInt (-184); VInt (-183); VInt (-182);
    VInt (-181); VInt (-180); VInt (-179); VInt (-178); VInt (-177);
    VInt (-176); VInt (-175); VInt (-174); VInt (-173); VInt (-172);
    VInt (-171); VInt (-170); VInt (-169); VInt (-168); VInt (-167);
    VInt (-166); VInt (-165); VInt (-164); VInt (-163); VInt (-162);
    VInt (-161); VInt (-160); VInt (-159); VInt (-158); VInt (-157);
    VInt (-156); VInt (-155); VInt (-154); VInt (-153); VInt (-152);
    VInt (-151); VInt (-150); VInt (-149); VInt (-148); VInt (-147);
    VInt (-146); VInt (-145); VInt (-144); VInt (-143); VInt (-142);
    VInt (-141); VInt (-140); VInt (-139); VInt (-138); VInt (-137);
    VInt (-136); VInt (-135); VInt (-134); VInt (-133); VInt (-132);
    VInt (-131); VInt (-130); VInt (-129); VInt (-128); VInt (-127);
    VInt (-126); VInt (-125); VInt (-124); VInt (-123); VInt (-122);
    VInt (-121); VInt (-120); VInt (-119); VInt (-118); VInt (-117);
    VInt (-116); VInt (-115); VInt (-114); VInt (-113); VInt (-112);
    VInt (-111); VInt (-110); VInt (-109); VInt (-108); VInt (-107);
    VInt (-106); VInt (-105); VInt (-104); VInt (-103); VInt (-102);
    VInt (-101); VInt (-100); VInt (-99); VInt (-98); VInt (-97); VInt (-96);
    VInt (-95); VInt (-94); VInt (-93); VInt (-92); VInt (-91); VInt (-90);
    VInt (-89); VInt (-88); VInt (-87); VInt (-86); VInt (-85); VInt (-84);
    VInt (-83); VInt (-82); VInt (-81); VInt (-80); VInt (-79); VInt (-78);
    VInt (-77); VInt (-76); VInt (-75); VInt (-74); VInt (-73); VInt (-72);
    VInt (-71); VInt (-70); VInt (-69); VInt (-68); VInt (-67); VInt (-66);
    VInt (-65); VInt (-64); VInt (-63); VInt (-62); VInt (-61); VInt (-60);
    VInt (-59); VInt (-58); VInt (-57); VInt (-56); VInt (-55); VInt (-54);
    VInt (-53); VInt (-52); VInt (-51); VInt (-50); VInt (-49); VInt (-48);
    VInt (-47); VInt (-46); VInt (-45); VInt (-44); VInt (-43); VInt (-42);
    VInt (-41); VInt (-40); VInt (-39); VInt (-38); VInt (-37); VInt (-36);
    VInt (-35); VInt (-34); VInt (-33); VInt (-32); VInt (-31); VInt (-30);
    VInt (-29); VInt (-28); VInt (-27); VInt (-26); VInt (-25); VInt (-24);
    VInt (-23); VInt (-22); VInt (-21); VInt (-20); VInt (-19); VInt (-18);
    VInt (-17); VInt (-16); VInt (-15); VInt (-14); VInt (-13); VInt (-12);
    VInt (-11); VInt (-10); VInt (-9); VInt (-8); VInt (-7); VInt (-6);
    VInt (-5); VInt (-4); VInt (-3); VInt (-2); VInt (-1); VInt 0; VInt 1;
    VInt 2; VInt 3; VInt 4; VInt 5; VInt 6; VInt 7; VInt 8; VInt 9; VInt 10;
    VInt 11; VInt 12; VInt 13; VInt 14; VInt 15; VInt 16; VInt 17; VInt 18;
    VInt 19; VInt 20; VInt 21; VInt 22; VInt 23; VInt 24; VInt 25; VInt 26;
    VInt 27; VInt 28; VInt 29; VInt 30; VInt 31; VInt 32; VInt 33; VInt 34;
    VInt 35; VInt 36; VInt 37; VInt 38; VInt 39; VInt 40; VInt 41; VInt 42;
    VInt 43; VInt 44; VInt 45; VInt 46; VInt 47; VInt 48; VInt 49; VInt 50;
    VInt 51; VInt 52; VInt 53; VInt 54; VInt 55; VInt 56; VInt 57; VInt 58;
    VInt 59; VInt 60; VInt 61; VInt 62; VInt 63; VInt 64; VInt 65; VInt 66;
    VInt 67; VInt 68; VInt 69; VInt 70; VInt 71; VInt 72; VInt 73; VInt 74;
    VInt 75; VInt 76; VInt 77; VInt 78; VInt 79; VInt 80; VInt 81; VInt 82;
    VInt 83; VInt 84; VInt 85; VInt 86; VInt 87; VInt 88; VInt 89; VInt 90;
    VInt 91; VInt 92; VInt 93; VInt 94; VInt 95; VInt 96; VInt 97; VInt 98;
    VInt 99; VInt 100; VInt 101; VInt 102; VInt 103; VInt 104; VInt 105;
    VInt 106; VInt 107; VInt 108; VInt 109; VInt 110; VInt 111; VInt 112;
    VInt 113; VInt 114; VInt 115; VInt 116; VInt 117; VInt 118; VInt 119;
    VInt 120; VInt 121; VInt 122; VInt 123; VInt 124; VInt 125; VInt 126;
    VInt 127; VInt 128; VInt 129; VInt 130; VInt 131; VInt 132; VInt 133;
    VInt 134; VInt 135; VInt 136; VInt 137; VInt 138; VInt 139; VInt 140;
    VInt 141; VInt 142; VInt 143; VInt 144; VInt 145; VInt 146; VInt 147;
    VInt 148; VInt 149; VInt 150; VInt 151; VInt 152; VInt 153; VInt 154;
    VInt 155; VInt 156; VInt 157; VInt 158; VInt 159; VInt 160; VInt 161;
    VInt 162; VInt 163; VInt 164; VInt 165; VInt 166; VInt 167; VInt 168;
    VInt 169; VInt 170; VInt 171; VInt 172; VInt 173; VInt 174; VInt 175;
    VInt 176; VInt 177; VInt 178; VInt 179; VInt 180; VInt 181; VInt 182;
    VInt 183; VInt 184; VInt 185; VInt 186; VInt 187; VInt 188; VInt 189;
    VInt 190; VInt 191; VInt 192; VInt 193; VInt 194; VInt 195; VInt 196;
    VInt 197; VInt 198; VInt 199; VInt 200; VInt 201; VInt 202; VInt 203;
    VInt 204; VInt 205; VInt 206; VInt 207; VInt 208; VInt 209; VInt 210;
    VInt 211; VInt 212; VInt 213; VInt 214; VInt 215; VInt 216; VInt 217;
    VInt 218; VInt 219; VInt 220; VInt 221; VInt 222; VInt 223; VInt 224;
    VInt 225; VInt 226; VInt 227; VInt 228; VInt 229; VInt 230; VInt 231;
    VInt 232; VInt 233; VInt 234; VInt 235; VInt 236; VInt 237; VInt 238;
    VInt 239; VInt 240; VInt 241; VInt 242; VInt 243; VInt 244; VInt 245;
    VInt 246; VInt 247; VInt 248; VInt 249; VInt 250; VInt 251; VInt 252;
    VInt 253; VInt 254; VInt 255; VInt 256; VInt 257; VInt 258; VInt 259;
    VInt 260; VInt 261; VInt 262; VInt 263; VInt 264; VInt 265; VInt 266;
    VInt 267; VInt 268; VInt 269; VInt 270; VInt 271; VInt 272; VInt 273;
    VInt 274; VInt 275; VInt 276; VInt 277; VInt 278; VInt 279; VInt 280;
    VInt 281; VInt 282; VInt 283; VInt 284; VInt 285; VInt 286; VInt 287;
    VInt 288; VInt 289; VInt 290; VInt 291; VInt 292; VInt 293; VInt 294;
    VInt 295; VInt 296; VInt 297; VInt 298; VInt 299; VInt 300; VInt 301;
    VInt 302; VInt 303; VInt 304; VInt 305; VInt 306; VInt 307; VInt 308;
    VInt 309; VInt 310; VInt 311; VInt 312; VInt 313; VInt 314; VInt 315;
    VInt 316; VInt 317; VInt 318; VInt 319; VInt 320; VInt 321; VInt 322;
    VInt 323; VInt 324; VInt 325; VInt 326; VInt 327; VInt 328; VInt 329;
    VInt 330; VInt 331; VInt 332; VInt 333; VInt 334; VInt 335; VInt 336;
    VInt 337; VInt 338; VInt 339; VInt 340; VInt 341; VInt 342; VInt 343;
    VInt 344; VInt 345; VInt 346; VInt 347; VInt 348; VInt 349; VInt 350;
    VInt 351; VInt 352; VInt 353; VInt 354; VInt 355; VInt 356; VInt 357;
    VInt 358; VInt 359; VInt 360; VInt 361; VInt 362; VInt 363; VInt 364;
    VInt 365; VInt 366; VInt 367; VInt 368; VInt 369; VInt 370; VInt 371;
    VInt 372; VInt 373; VInt 374; VInt 375; VInt 376; VInt 377; VInt 378;
    VInt 379; VInt 380; VInt 381; VInt 382; VInt 383; VInt 384; VInt 385;
    VInt 386; VInt 387; VInt 388; VInt 389; VInt 390; VInt 391; VInt 392;
    VInt 393; VInt 394; VInt 395; VInt 396; VInt 397; VInt 398; VInt 399;
    VInt 400; VInt 401; VInt 402; VInt 403; VInt 404; VInt 405; VInt 406;
    VInt 407; VInt 408; VInt 409; VInt 410; VInt 411; VInt 412; VInt 413;
    VInt 414; VInt 415; VInt 416; VInt 417; VInt 418; VInt 419; VInt 420;
    VInt 421; VInt 422; VInt 423; VInt 424; VInt 425; VInt 426; VInt 427;
    VInt 428; VInt 429; VInt 430; VInt 431; VInt 432; VInt 433; VInt 434;
    VInt 435; VInt 436; VInt 437; VInt 438; VInt 439; VInt 440; VInt 441;
    VInt 442; VInt 443; VInt 444; VInt 445; VInt 446; VInt 447; VInt 448;
    VInt 449; VInt 450; VInt 451; VInt 452; VInt 453; VInt 454; VInt 455;
    VInt 456; VInt 457; VInt 458; VInt 459; VInt 460; VInt 461; VInt 462;
    VInt 463; VInt 464; VInt 465; VInt 466; VInt 467; VInt 468; VInt 469;
    VInt 470; VInt 471; VInt 472; VInt 473; VInt 474; VInt 475; VInt 476;
    VInt 477; VInt 478; VInt 479; VInt 480; VInt 481; VInt 482; VInt 483;
    VInt 484; VInt 485; VInt 486; VInt 487; VInt 488; VInt 489; VInt 490;
    VInt 491; VInt 492; VInt 493; VInt 494; VInt 495; VInt 496; VInt 497;
    VInt 498; VInt 499; VInt 500; VInt 501; VInt 502; VInt 503; VInt 504;
    VInt 505; VInt 506; VInt 507; VInt 508; VInt 509; VInt 510; VInt 511;
    VInt 512; VInt 513; VInt 514; VInt 515; VInt 516; VInt 517; VInt 518;
    VInt 519; VInt 520; VInt 521; VInt 522; VInt 523; VInt 524; VInt 525;
    VInt 526; VInt 527; VInt 528; VInt 529; VInt 530; VInt 531; VInt 532;
    VInt 533; VInt 534; VInt 535; VInt 536; VInt 537; VInt 538; VInt 539;
    VInt 540; VInt 541; VInt 542; VInt 543; VInt 544; VInt 545; VInt 546;
    VInt 547; VInt 548; VInt 549; VInt 550; VInt 551; VInt 552; VInt 553;
    VInt 554; VInt 555; VInt 556; VInt 557; VInt 558; VInt 559; VInt 560;
    VInt 561; VInt 562; VInt 563; VInt 564; VInt 565; VInt 566; VInt 567;
    VInt 568; VInt 569; VInt 570; VInt 571; VInt 572; VInt 573; VInt 574;
    VInt 575; VInt 576; VInt 577; VInt 578; VInt 579; VInt 580; VInt 581;
    VInt 582; VInt 583; VInt 584; VInt 585; VInt 586; VInt 587; VInt 588;
    VInt 589; VInt 590; VInt 591; VInt 592; VInt 593; VInt 594; VInt 595;
    VInt 596; VInt 597; VInt 598; VInt 599; VInt 600; VInt 601; VInt 602;
    VInt 603; VInt 604; VInt 605; VInt 606; VInt 607; VInt 608; VInt 609;
    VInt 610; VInt 611; VInt 612; VInt 613; VInt 614; VInt 615; VInt 616;
    VInt 617; VInt 618; VInt 619; VInt 620; VInt 621; VInt 622; VInt 623;
    VInt 624; VInt 625; VInt 626; VInt 627; VInt 628; VInt 629; VInt 630;
    VInt 631; VInt 632; VInt 633; VInt 634; VInt 635; VInt 636; VInt 637;
    VInt 638; VInt 639; VInt 640; VInt 641; VInt 642; VInt 643; VInt 644;
    VInt 645; VInt 646; VInt 647; VInt 648; VInt 649; VInt 650; VInt 651;
    VInt 652; VInt 653; VInt 654; VInt 655; VInt 656; VInt 657; VInt 658;
    VInt 659; VInt 660; VInt 661; VInt 662; VInt 663; VInt 664; VInt 665;
    VInt 666; VInt 667; VInt 668; VInt 669; VInt 670; VInt 671; VInt 672;
    VInt 673; VInt 674; VInt 675; VInt 676; VInt 677; VInt 678; VInt 679;
    VInt 680; VInt 681; VInt 682; VInt 683; VInt 684; VInt 685; VInt 686;
    VInt 687; VInt 688; VInt 689; VInt 690; VInt 691; VInt 692; VInt 693;
    VInt 694; VInt 695; VInt 696; VInt 697; VInt 698; VInt 699; VInt 700;
    VInt 701; VInt 702; VInt 703; VInt 704; VInt 705; VInt 706; VInt 707;
    VInt 708; VInt 709; VInt 710; VInt 711; VInt 712; VInt 713; VInt 714;
    VInt 715; VInt 716; VInt 717; VInt 718; VInt 719; VInt 720; VInt 721;
    VInt 722; VInt 723; VInt 724; VInt 725; VInt 726; VInt 727; VInt 728;
    VInt 729; VInt 730; VInt 731; VInt 732; VInt 733; VInt 734; VInt 735;
    VInt 736; VInt 737; VInt 738; VInt 739; VInt 740; VInt 741; VInt 742;
    VInt 743; VInt 744; VInt 745; VInt 746; VInt 747; VInt 748; VInt 749;
    VInt 750; VInt 751; VInt 752; VInt 753; VInt 754; VInt 755; VInt 756;
    VInt 757; VInt 758; VInt 759; VInt 760; VInt 761; VInt 762; VInt 763;
    VInt 764; VInt 765; VInt 766; VInt 767; VInt 768; VInt 769; VInt 770;
    VInt 771; VInt 772; VInt 773; VInt 774; VInt 775; VInt 776; VInt 777;
    VInt 778; VInt 779; VInt 780; VInt 781; VInt 782; VInt 783; VInt 784;
    VInt 785; VInt 786; VInt 787; VInt 788; VInt 789; VInt 790; VInt 791;
    VInt 792; VInt 793; VInt 794; VInt 795; VInt 796; VInt 797; VInt 798;
    VInt 799; VInt 800; VInt 801; VInt 802; VInt 803; VInt 804; VInt 805;
    VInt 806; VInt 807; VInt 808; VInt 809; VInt 810; VInt 811; VInt 812;
    VInt 813; VInt 814; VInt 815; VInt 816; VInt 817; VInt 818; VInt 819;
    VInt 820; VInt 821; VInt 822; VInt 823; VInt 824; VInt 825; VInt 826;
    VInt 827; VInt 828; VInt 829; VInt 830; VInt 831; VInt 832; VInt 833;
    VInt 834; VInt 835; VInt 836; VInt 837; VInt 838; VInt 839; VInt 840;
    VInt 841; VInt 842; VInt 843; VInt 844; VInt 845; VInt 846; VInt 847;
    VInt 848; VInt 849; VInt 850; VInt 851; VInt 852; VInt 853; VInt 854;
    VInt 855; VInt 856; VInt 857; VInt 858; VInt 859; VInt 860; VInt 861;
    VInt 862; VInt 863; VInt 864; VInt 865; VInt 866; VInt 867; VInt 868;
    VInt 869; VInt 870; VInt 871; VInt 872; VInt 873; VInt 874; VInt 875;
    VInt 876; VInt 877; VInt 878; VInt 879; VInt 880; VInt 881; VInt 882;
    VInt 883; VInt 884; VInt 885; VInt 886; VInt 887; VInt 888; VInt 889;
    VInt 890; VInt 891; VInt 892; VInt 893; VInt 894; VInt 895; VInt 896;
    VInt 897; VInt 898; VInt 899; VInt 900; VInt 901; VInt 902; VInt 903;
    VInt 904; VInt 905; VInt 906; VInt 907; VInt 908; VInt 909; VInt 910;
    VInt 911; VInt 912; VInt 913; VInt 914; VInt 915; VInt 916; VInt 917;
    VInt 918; VInt 919; VInt 920; VInt 921; VInt 922; VInt 923; VInt 924;
    VInt 925; VInt 926; VInt 927; VInt 928; VInt 929; VInt 930; VInt 931;
    VInt 932; VInt 933; VInt 934; VInt 935; VInt 936; VInt 937; VInt 938;
    VInt 939; VInt 940; VInt 941; VInt 942; VInt 943; VInt 944; VInt 945;
    VInt 946; VInt 947; VInt 948; VInt 949; VInt 950; VInt 951; VInt 952;
    VInt 953; VInt 954; VInt 955; VInt 956; VInt 957; VInt 958; VInt 959;
    VInt 960; VInt 961; VInt 962; VInt 963; VInt 964; VInt 965; VInt 966;
    VInt 967; VInt 968; VInt 969; VInt 970; VInt 971; VInt 972; VInt 973;
    VInt 974; VInt 975; VInt 976; VInt 977; VInt 978; VInt 979; VInt 980;
    VInt 981; VInt 982; VInt 983; VInt 984; VInt 985; VInt 986; VInt 987;
    VInt 988; VInt 989; VInt 990; VInt 991; VInt 992; VInt 993; VInt 994;
    VInt 995; VInt 996; VInt 997; VInt 998; VInt 999; VInt 1000; VInt 1001;
    VInt 1002; VInt 1003; VInt 1004; VInt 1005; VInt 1006; VInt 1007; VInt 1008;
    VInt 1009; VInt 1010; VInt 1011; VInt 1012; VInt 1013; VInt 1014; VInt 1015;
    VInt 1016; VInt 1017; VInt 1018; VInt 1019; VInt 1020; VInt 1021; VInt 1022;
    VInt 1023; VInt 1024;
  |]

let[@inline] vint n =
  if n >= -256 && n <= 1024 then Array.unsafe_get vint_cache (n + 256)
  else VInt n

let vtrue = VInt 1
let vfalse = VInt 0

(* Truthiness for conditions. *)
let truthy = function
  | VInt n -> n <> 0
  | VFloat f -> f <> 0.0
  | VNull -> false
  | VPtr _ | VObj _ | VArr _ | VStr _ | VFunPtr _ | VMemPtr _ -> true
  | VUnit -> runtime_error "void value used in condition"

let as_int = function
  | VInt n -> n
  | VFloat f -> int_of_float f
  | VNull -> 0
  | v ->
      runtime_error "expected an integer value, got %s"
        (match v with
        | VStr _ -> "a string"
        | VPtr _ -> "a pointer"
        | VObj _ -> "an object"
        | VArr _ -> "an array"
        | VMemPtr _ -> "a member pointer"
        | VFunPtr _ -> "a function pointer"
        | VUnit -> "void"
        | VInt _ | VFloat _ | VNull -> assert false)

let as_float = function
  | VFloat f -> f
  | VInt n -> float_of_int n
  | _ -> runtime_error "expected a floating-point value"

(* The per-dispatch helpers inline into both engines; their error
   formatting stays out of line. *)
let[@inline never] not_an_object () = runtime_error "expected a class object"

let[@inline] as_obj = function
  | VObj o -> o
  | VPtr (PObj o) -> o
  | _ -> not_an_object ()

(* Equality used by == and != : pointer identity for pointers. *)
let value_eq a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> x = y
  | VInt x, VFloat y | VFloat y, VInt x -> float_of_int x = y
  | VNull, VNull -> true
  | VNull, VPtr _ | VPtr _, VNull -> false
  | VNull, (VInt 0) | (VInt 0), VNull -> true
  | VPtr (PObj a), VPtr (PObj b) -> a == b
  | VPtr (PArr (a, i)), VPtr (PArr (b, j)) -> a.cells == b.cells && i = j
  | VPtr _, VPtr _ -> false
  | VStr a, VStr b -> String.equal a b
  | VFunPtr a, VFunPtr b -> Typed_ast.Func_id.equal a b
  | VMemPtr a, VMemPtr b -> Member.equal a b
  | _ -> runtime_error "incomparable values"

(* Every array whose length the guest program chooses — [new T[n]],
   local, global, static and member arrays, stack and member arrays of
   objects — is allocated here, in both engines: a length past
   [Sys.max_array_length] is a resource limit, not an [Invalid_argument]
   escaping the run. *)
let guest_array n f =
  if n > Sys.max_array_length then
    limit_exceeded "array of %d elements exceeds the maximum array length %d" n
      Sys.max_array_length;
  Array.init n f

(* Default (zero) value for a type; class-typed slots are filled during
   construction and [VUnit] here is a placeholder that construction
   replaces. *)
let rec default_value (ty : Frontend.Ast.type_expr) : value =
  match ty with
  | Frontend.Ast.TBool | Frontend.Ast.TChar | Frontend.Ast.TInt
  | Frontend.Ast.TLong ->
      VInt 0
  | Frontend.Ast.TFloat | Frontend.Ast.TDouble -> VFloat 0.0
  | Frontend.Ast.TPtr _ | Frontend.Ast.TFun _ | Frontend.Ast.TMemPtrTy _ ->
      VNull
  | Frontend.Ast.TRef _ -> VNull
  | Frontend.Ast.TNamed _ -> VUnit (* replaced by construction *)
  | Frontend.Ast.TArr (elem, n) ->
      VArr { arr_id = -1; cells = guest_array n (fun _ -> default_value elem) }
  | Frontend.Ast.TVoid -> VUnit

(* Coerce a value being stored into a slot of static type [ty]: truncates
   floats into ints and widens ints into floats, mirroring C++ implicit
   conversions on assignment and argument passing. *)
let[@inline never] coerce_slow (ty : Frontend.Ast.type_expr) (v : value) :
    value =
  match (ty, v) with
  | (Frontend.Ast.TInt | Frontend.Ast.TLong), VFloat f -> vint (int_of_float f)
  | Frontend.Ast.TChar, VInt n -> vint (n land 255)
  | Frontend.Ast.TChar, VFloat f -> vint (int_of_float f land 255)
  | Frontend.Ast.TBool, VInt n -> if n <> 0 then vtrue else vfalse
  | Frontend.Ast.TBool, VFloat f -> if f <> 0.0 then vtrue else vfalse
  | (Frontend.Ast.TFloat | Frontend.Ast.TDouble), VInt n -> VFloat (float_of_int n)
  | Frontend.Ast.TPtr _, VArr h -> VPtr (PArr (h, 0))  (* array decay *)
  | Frontend.Ast.TPtr _, VObj o -> VPtr (PObj o)
  | _ -> v

(* The stores that need no conversion answer inline. *)
let[@inline] coerce (ty : Frontend.Ast.type_expr) (v : value) : value =
  match (ty, v) with
  | (Frontend.Ast.TInt | Frontend.Ast.TLong), VInt _
  | Frontend.Ast.TPtr _, (VPtr _ | VNull) ->
      v
  | _ -> coerce_slow ty v

(* -- lvalue locations ----------------------------------------------------------

   Shared by both execution engines (the tree-walker and the bytecode
   VM): an lvalue location is a slot of some backing array (frame,
   object, globals, statics, or a program array). *)

type location = LSlot of harray * int

let read_loc (LSlot (h, i)) = h.cells.(i)
let write_loc (LSlot (h, i)) v = h.cells.(i) <- v

(* Pointers made from locations always carry [arr_id = -1], exactly as
   the scope-chain interpreter's [ptr_of_loc] did: a pointer *into* a
   heap array is not the allocation itself, so [free] through it never
   journals a free. *)
let ptr_of_loc (LSlot (h, i)) =
  VPtr (PArr ((if h.arr_id = -1 then h else { arr_id = -1; cells = h.cells }), i))

(* Shared empty bank, so frames and objects without unboxed slots cost
   nothing extra. *)
let no_ints : int array = [||]

(* A call frame: flat slot-addressed locals (one bank per representation;
   the tree walker's frames have no int bank) plus the receiver. *)
type frame = {
  locals : harray;
  ilocals : int array;
  this : obj option;
}

let[@inline never] no_this () = runtime_error "'this' outside a method"

(* The receiver of a method's frame. *)
let[@inline] this_of (fr : frame) =
  match fr.this with Some o -> o | None -> no_this ()

let mk_frame ~ints nslots this =
  {
    locals = { arr_id = -1; cells = Array.make nslots VUnit };
    ilocals = (if ints = 0 then no_ints else Array.make ints 0);
    this;
  }

(* Raised by the [abort()] builtin; intercepted at the interpreter entry
   point, where it becomes exit status 134. It never leaves the engines. *)
exception Abort_called

(* Whether a run ended in [abort()]: also when a destructor called it
   while an error unwound its scope, which wraps it in
   [Fun.Finally_raised]. *)
let rec is_abort = function
  | Abort_called -> true
  | Fun.Finally_raised e -> is_abort e
  | _ -> false

(* -- operator semantics ----------------------------------------------------------

   One copy of the arithmetic/comparison/unary semantics, shared by both
   engines so error strings and edge cases cannot drift. *)

let unary op v =
  match (op, v) with
  | Frontend.Ast.Neg, VInt n -> vint (-n)
  | Frontend.Ast.Neg, VFloat f -> VFloat (-.f)
  | Frontend.Ast.UPlus, v -> v
  | Frontend.Ast.Not, v -> if truthy v then vfalse else vtrue
  | Frontend.Ast.BitNot, VInt n -> vint (lnot n)
  | _ -> runtime_error "invalid unary operand"

(* The boolean result of a relational operator ([<] [>] [<=] [>=]). *)
let compare_test op va vb =
  let cmp =
    match (va, vb) with
    | VInt x, VInt y -> compare x y
    | VFloat x, VFloat y -> compare x y
    | VInt x, VFloat y -> compare (float_of_int x) y
    | VFloat x, VInt y -> compare x (float_of_int y)
    | VPtr (PArr (h1, i)), VPtr (PArr (h2, j)) when h1.cells == h2.cells ->
        compare i j
    | _ -> runtime_error "invalid comparison operands"
  in
  match op with
  | Frontend.Ast.Lt -> cmp < 0
  | Frontend.Ast.Gt -> cmp > 0
  | Frontend.Ast.Le -> cmp <= 0
  | Frontend.Ast.Ge -> cmp >= 0
  | _ -> assert false

let compare_values op va vb = if compare_test op va vb then vtrue else vfalse

let arith op va vb =
  match (va, vb) with
  | VPtr (PArr (h, i)), VInt n -> (
      match op with
      | Frontend.Ast.Add -> VPtr (PArr (h, i + n))
      | Frontend.Ast.Sub -> VPtr (PArr (h, i - n))
      | _ -> runtime_error "invalid pointer arithmetic")
  | VInt n, VPtr (PArr (h, i)) when op = Frontend.Ast.Add ->
      VPtr (PArr (h, i + n))
  | VPtr (PArr (h1, i)), VPtr (PArr (h2, j))
    when op = Frontend.Ast.Sub && h1.cells == h2.cells ->
      vint (i - j)
  | VFloat _, _ | _, VFloat _ -> (
      let x = as_float va and y = as_float vb in
      match op with
      | Frontend.Ast.Add -> VFloat (x +. y)
      | Frontend.Ast.Sub -> VFloat (x -. y)
      | Frontend.Ast.Mul -> VFloat (x *. y)
      | Frontend.Ast.Div ->
          if y = 0.0 then runtime_error "floating division by zero"
          else VFloat (x /. y)
      | _ -> runtime_error "invalid floating operands")
  | _ -> (
      let x = as_int va and y = as_int vb in
      match op with
      | Frontend.Ast.Add -> vint (x + y)
      | Frontend.Ast.Sub -> vint (x - y)
      | Frontend.Ast.Mul -> vint (x * y)
      | Frontend.Ast.Div ->
          if y = 0 then runtime_error "division by zero" else vint (x / y)
      | Frontend.Ast.Mod ->
          if y = 0 then runtime_error "modulo by zero" else vint (x mod y)
      | Frontend.Ast.BAnd -> vint (x land y)
      | Frontend.Ast.BOr -> vint (x lor y)
      | Frontend.Ast.BXor -> vint (x lxor y)
      | Frontend.Ast.Shl -> vint (x lsl y)
      | Frontend.Ast.Shr -> vint (x asr y)
      | _ -> assert false)

let compound_op op old rv ty =
  let binop =
    match op with
    | Frontend.Ast.AddAssign -> Frontend.Ast.Add
    | Frontend.Ast.SubAssign -> Frontend.Ast.Sub
    | Frontend.Ast.MulAssign -> Frontend.Ast.Mul
    | Frontend.Ast.DivAssign -> Frontend.Ast.Div
    | Frontend.Ast.ModAssign -> Frontend.Ast.Mod
    | Frontend.Ast.AndAssign -> Frontend.Ast.BAnd
    | Frontend.Ast.OrAssign -> Frontend.Ast.BOr
    | Frontend.Ast.XorAssign -> Frontend.Ast.BXor
    | Frontend.Ast.ShlAssign -> Frontend.Ast.Shl
    | Frontend.Ast.ShrAssign -> Frontend.Ast.Shr
    | Frontend.Ast.Assign -> assert false
  in
  coerce ty (arith binop old rv)
