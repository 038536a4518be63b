// Package hci models the Bluetooth Host Controller Interface: H4 packet
// framing, the command and event structures the BLAP attacks depend on
// (link key requests and notifications, connection and authentication
// management, SSP IO capability exchange), a binary codec, and a tappable
// transport abstraction used by the snoop logger and the USB sniffer.
package hci

import "fmt"

// Opcode is an HCI command opcode: OGF (6 bits) << 10 | OCF (10 bits).
type Opcode uint16

// OGF returns the opcode group field.
func (o Opcode) OGF() uint16 { return uint16(o) >> 10 }

// OCF returns the opcode command field.
func (o Opcode) OCF() uint16 { return uint16(o) & 0x3FF }

// Link control (OGF 0x01), controller & baseband (OGF 0x03) and
// informational (OGF 0x04) commands used by the simulator.
const (
	OpInquiry                       Opcode = 0x0401
	OpInquiryCancel                 Opcode = 0x0402
	OpCreateConnection              Opcode = 0x0405
	OpDisconnect                    Opcode = 0x0406
	OpAcceptConnectionRequest       Opcode = 0x0409
	OpRejectConnectionRequest       Opcode = 0x040A
	OpLinkKeyRequestReply           Opcode = 0x040B
	OpLinkKeyRequestNegativeReply   Opcode = 0x040C
	OpPINCodeRequestReply           Opcode = 0x040D
	OpPINCodeRequestNegativeReply   Opcode = 0x040E
	OpAuthenticationRequested       Opcode = 0x0411
	OpSetConnectionEncryption       Opcode = 0x0413
	OpRemoteNameRequest             Opcode = 0x0419
	OpIOCapabilityRequestReply      Opcode = 0x042B
	OpUserConfirmationRequestReply  Opcode = 0x042C
	OpUserConfirmationRequestNegRep Opcode = 0x042D
	OpUserPasskeyRequestReply       Opcode = 0x042E
	OpUserPasskeyRequestNegReply    Opcode = 0x042F
	OpRemoteOOBDataRequestReply     Opcode = 0x0430
	OpRemoteOOBDataRequestNegReply  Opcode = 0x0433

	OpReset                  Opcode = 0x0C03
	OpWriteLocalName         Opcode = 0x0C13
	OpWriteScanEnable        Opcode = 0x0C1A
	OpWriteClassOfDevice     Opcode = 0x0C24
	OpWriteSimplePairingMode Opcode = 0x0C56

	OpReadLocalOOBData Opcode = 0x0C57

	OpReadBDADDR Opcode = 0x1009
)

func (o Opcode) String() string {
	switch o {
	case OpInquiry:
		return "HCI_Inquiry"
	case OpInquiryCancel:
		return "HCI_Inquiry_Cancel"
	case OpCreateConnection:
		return "HCI_Create_Connection"
	case OpDisconnect:
		return "HCI_Disconnect"
	case OpAcceptConnectionRequest:
		return "HCI_Accept_Connection_Request"
	case OpRejectConnectionRequest:
		return "HCI_Reject_Connection_Request"
	case OpLinkKeyRequestReply:
		return "HCI_Link_Key_Request_Reply"
	case OpLinkKeyRequestNegativeReply:
		return "HCI_Link_Key_Request_Negative_Reply"
	case OpPINCodeRequestReply:
		return "HCI_PIN_Code_Request_Reply"
	case OpPINCodeRequestNegativeReply:
		return "HCI_PIN_Code_Request_Negative_Reply"
	case OpAuthenticationRequested:
		return "HCI_Authentication_Requested"
	case OpSetConnectionEncryption:
		return "HCI_Set_Connection_Encryption"
	case OpRemoteNameRequest:
		return "HCI_Remote_Name_Request"
	case OpIOCapabilityRequestReply:
		return "HCI_IO_Capability_Request_Reply"
	case OpUserConfirmationRequestReply:
		return "HCI_User_Confirmation_Request_Reply"
	case OpUserConfirmationRequestNegRep:
		return "HCI_User_Confirmation_Request_Negative_Reply"
	case OpUserPasskeyRequestReply:
		return "HCI_User_Passkey_Request_Reply"
	case OpUserPasskeyRequestNegReply:
		return "HCI_User_Passkey_Request_Negative_Reply"
	case OpRemoteOOBDataRequestReply:
		return "HCI_Remote_OOB_Data_Request_Reply"
	case OpRemoteOOBDataRequestNegReply:
		return "HCI_Remote_OOB_Data_Request_Negative_Reply"
	case OpReset:
		return "HCI_Reset"
	case OpWriteLocalName:
		return "HCI_Write_Local_Name"
	case OpWriteScanEnable:
		return "HCI_Write_Scan_Enable"
	case OpWriteClassOfDevice:
		return "HCI_Write_Class_Of_Device"
	case OpWriteSimplePairingMode:
		return "HCI_Write_Simple_Pairing_Mode"
	case OpReadLocalOOBData:
		return "HCI_Read_Local_OOB_Data"
	case OpReadBDADDR:
		return "HCI_Read_BD_ADDR"
	default:
		return fmt.Sprintf("HCI_Opcode(0x%04x)", uint16(o))
	}
}

// EventCode identifies an HCI event.
type EventCode uint8

// Events used by the simulator.
const (
	EvInquiryComplete           EventCode = 0x01
	EvInquiryResult             EventCode = 0x02
	EvConnectionComplete        EventCode = 0x03
	EvConnectionRequest         EventCode = 0x04
	EvDisconnectionComplete     EventCode = 0x05
	EvAuthenticationComplete    EventCode = 0x06
	EvRemoteNameRequestComplete EventCode = 0x07
	EvEncryptionChange          EventCode = 0x08
	EvCommandComplete           EventCode = 0x0E
	EvCommandStatus             EventCode = 0x0F
	EvPINCodeRequest            EventCode = 0x16
	EvLinkKeyRequest            EventCode = 0x17
	EvLinkKeyNotification       EventCode = 0x18
	EvIOCapabilityRequest       EventCode = 0x31
	EvIOCapabilityResponse      EventCode = 0x32
	EvUserConfirmationRequest   EventCode = 0x33
	EvUserPasskeyRequest        EventCode = 0x34
	EvRemoteOOBDataRequest      EventCode = 0x35
	EvSimplePairingComplete     EventCode = 0x36
	EvUserPasskeyNotification   EventCode = 0x3B
)

func (e EventCode) String() string {
	switch e {
	case EvInquiryComplete:
		return "HCI_Inquiry_Complete"
	case EvInquiryResult:
		return "HCI_Inquiry_Result"
	case EvConnectionComplete:
		return "HCI_Connection_Complete"
	case EvConnectionRequest:
		return "HCI_Connection_Request"
	case EvDisconnectionComplete:
		return "HCI_Disconnection_Complete"
	case EvAuthenticationComplete:
		return "HCI_Authentication_Complete"
	case EvRemoteNameRequestComplete:
		return "HCI_Remote_Name_Request_Complete"
	case EvEncryptionChange:
		return "HCI_Encryption_Change"
	case EvCommandComplete:
		return "HCI_Command_Complete"
	case EvCommandStatus:
		return "HCI_Command_Status"
	case EvPINCodeRequest:
		return "HCI_PIN_Code_Request"
	case EvLinkKeyRequest:
		return "HCI_Link_Key_Request"
	case EvLinkKeyNotification:
		return "HCI_Link_Key_Notification"
	case EvIOCapabilityRequest:
		return "HCI_IO_Capability_Request"
	case EvIOCapabilityResponse:
		return "HCI_IO_Capability_Response"
	case EvUserConfirmationRequest:
		return "HCI_User_Confirmation_Request"
	case EvUserPasskeyRequest:
		return "HCI_User_Passkey_Request"
	case EvRemoteOOBDataRequest:
		return "HCI_Remote_OOB_Data_Request"
	case EvUserPasskeyNotification:
		return "HCI_User_Passkey_Notification"
	case EvSimplePairingComplete:
		return "HCI_Simple_Pairing_Complete"
	default:
		return fmt.Sprintf("HCI_Event(0x%02x)", uint8(e))
	}
}

// Status is an HCI error code (Core spec Vol 1 Part F).
type Status uint8

// Status codes used by the simulator.
const (
	StatusSuccess                 Status = 0x00
	StatusUnknownConnectionID     Status = 0x02
	StatusPageTimeout             Status = 0x04
	StatusAuthenticationFailure   Status = 0x05
	StatusPINOrKeyMissing         Status = 0x06
	StatusConnectionTimeout       Status = 0x08
	StatusConnectionAcceptTimeout Status = 0x10
	StatusRemoteUserTerminated    Status = 0x13
	StatusConnTerminatedLocally   Status = 0x16
	StatusPairingNotAllowed       Status = 0x18
	StatusLMPResponseTimeout      Status = 0x22
	StatusConnectionAlreadyExists Status = 0x0B
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "Success"
	case StatusUnknownConnectionID:
		return "Unknown Connection Identifier"
	case StatusPageTimeout:
		return "Page Timeout"
	case StatusAuthenticationFailure:
		return "Authentication Failure"
	case StatusPINOrKeyMissing:
		return "PIN or Key Missing"
	case StatusConnectionTimeout:
		return "Connection Timeout"
	case StatusConnectionAcceptTimeout:
		return "Connection Accept Timeout"
	case StatusRemoteUserTerminated:
		return "Remote User Terminated Connection"
	case StatusConnTerminatedLocally:
		return "Connection Terminated By Local Host"
	case StatusPairingNotAllowed:
		return "Pairing Not Allowed"
	case StatusLMPResponseTimeout:
		return "LMP Response Timeout"
	case StatusConnectionAlreadyExists:
		return "Connection Already Exists"
	default:
		return fmt.Sprintf("Status(0x%02x)", uint8(s))
	}
}

// Err converts a non-success status to an error; success yields nil.
func (s Status) Err() error {
	if s == StatusSuccess {
		return nil
	}
	return fmt.Errorf("hci: %s", s)
}
